/**
 * @file
 * The one task runner behind every thread pool in cryptarch: the sweep
 * driver's thread mode, the server simulations, and the worker count
 * of the sweep driver's process mode all come from here.
 *
 * parallelFor hands out indices 0..n-1 from one shared counter, in
 * increasing order, so a caller controls scheduling priority purely by
 * how it numbers its tasks (the sweep driver puts each trace group's
 * recording first). Callers write results into pre-assigned slots, so
 * output never depends on the worker count.
 */

#ifndef CRYPTARCH_UTIL_PARALLEL_HH
#define CRYPTARCH_UTIL_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace cryptarch::util
{

/**
 * Workers for @p n tasks: @p threads (0 = hardware concurrency)
 * clamped to [1, n], and at least 1 when @p n is 0.
 */
inline unsigned
workerCount(size_t n, unsigned threads)
{
    if (!threads)
        threads = std::thread::hardware_concurrency();
    return static_cast<unsigned>(
        std::clamp<size_t>(threads, 1, std::max<size_t>(n, 1)));
}

/**
 * Call @p fn(i) exactly once for every i in [0, n), on
 * workerCount(n, threads) workers; the calling thread is one of them.
 * Indices are claimed in increasing order. The first exception @p fn
 * throws stops further claims and is rethrown here once every worker
 * has joined.
 */
template <class Fn>
void
parallelFor(size_t n, unsigned threads, Fn &&fn)
{
    if (n == 0)
        return;
    std::atomic<size_t> next{0};
    std::exception_ptr error;
    std::mutex errorMutex;
    auto worker = [&] {
        for (size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!error)
                    error = std::current_exception();
                next = n;
            }
        }
    };

    const unsigned workers = workerCount(n, threads);
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned t = 1; t < workers; t++) {
        try {
            pool.emplace_back(worker);
        } catch (const std::system_error &) {
            break; // the workers already started finish the range
        }
    }
    worker();
    for (auto &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace cryptarch::util

#endif // CRYPTARCH_UTIL_PARALLEL_HH
