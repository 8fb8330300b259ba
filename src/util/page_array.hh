/**
 * @file
 * A growable array of trivially copyable values held in its own
 * anonymous page mapping instead of the heap.
 *
 * Every kernel recording allocates two large buffers and frees them
 * when its replays are done: the trace's address log
 * (driver::RecordedTrace, up to 16 MB at 64 KB) and the functional
 * machine's memory (isa::Machine, 4 MB). Through malloc, the first
 * such free raises glibc's dynamic mmap threshold, later buffers come
 * from the per-thread arenas, and the freed pages stay resident in
 * whichever worker's arena held them, so a process's peak depended on
 * which thread recorded what (DESIGN §8). Here a new mapping is the
 * kernel's zero page, so only the pages a program writes become
 * resident; growth moves the mapping with mremap instead of copying;
 * and destruction returns every page to the OS at once.
 */

#ifndef CRYPTARCH_UTIL_PAGE_ARRAY_HH
#define CRYPTARCH_UTIL_PAGE_ARRAY_HH

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace cryptarch::util
{

/**
 * A std::vector-like array of @p T on anonymous pages. New elements
 * read zero. Copies are deep; a moved-from array is empty and can be
 * filled again.
 */
template <class T>
class PageArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "PageArray moves its bytes with mremap and memcpy");

  public:
    PageArray() = default;

    /** @p n zero elements. */
    explicit PageArray(size_t n)
    {
        reserve(n);
        size_ = n;
    }

    PageArray(const PageArray &other) : PageArray()
    {
        reserve(other.size_);
        if (other.size_)
            std::memcpy(data_, other.data_, other.size_ * sizeof(T));
        size_ = other.size_;
    }

    PageArray(PageArray &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0)),
          bytes_(std::exchange(other.bytes_, 0))
    {
    }

    /** Copy or move assignment, by swapping with the by-value copy. */
    PageArray &
    operator=(PageArray other) noexcept
    {
        std::swap(data_, other.data_);
        std::swap(size_, other.size_);
        std::swap(bytes_, other.bytes_);
        return *this;
    }

    ~PageArray()
    {
        if (data_)
            munmap(data_, bytes_);
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T *data() { return data_; }
    const T *data() const { return data_; }
    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    T &operator[](size_t i) { return data_[i]; }
    const T &operator[](size_t i) const { return data_[i]; }

    /** Append @p value, doubling the mapping when it is full. */
    void
    push_back(const T &value)
    {
        if (size_ == bytes_ / sizeof(T)) [[unlikely]]
            reserve(std::max<size_t>(size_ + 1, 2 * size_));
        data_[size_++] = value;
    }

  private:
    /** Mapping granularity; the kernel rounds to its own page size. */
    static constexpr size_t page = 4096;

    /** Grow the mapping to hold at least @p n elements. Throws
     *  std::bad_alloc when the kernel refuses. */
    void
    reserve(size_t n)
    {
        if (n > (SIZE_MAX - page) / sizeof(T))
            throw std::bad_alloc();
        const size_t bytes = (n * sizeof(T) + page - 1) & ~(page - 1);
        if (bytes <= bytes_)
            return;
        void *p = data_ ? mremap(data_, bytes_, bytes, MREMAP_MAYMOVE)
                        : mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        data_ = static_cast<T *>(p);
        bytes_ = bytes;
    }

    T *data_ = nullptr;
    size_t size_ = 0;  ///< elements in use
    size_t bytes_ = 0; ///< bytes mapped; 0 when nothing is
};

} // namespace cryptarch::util

#endif // CRYPTARCH_UTIL_PAGE_ARRAY_HH
