/**
 * @file
 * Driver-level execution-backend policy tests: the differential
 * adoption gate runs once per (cipher, variant, direction), the
 * threaded backend's recorded product is byte-identical to the
 * interpreter's, and RecordTiming's phase fields are disjoint splits
 * of the call's wall clock (the per-backend record_seconds columns in
 * BENCH_simspeed.json compare executors, so the shared phases must
 * never leak into recordSeconds).
 */

#include <gtest/gtest.h>

#include <chrono>

#include "driver/trace.hh"
#include "driver/workload.hh"

namespace
{

using namespace cryptarch;

/** Restore the process-wide backend policy after each test. */
class ExecBackendPolicy : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saved_sel_ = driver::execBackendSelection();
        driver::resetExecBackendGate();
    }

    void
    TearDown() override
    {
        driver::setExecBackendSelection(saved_sel_);
        driver::resetExecBackendGate();
    }

  private:
    driver::ExecBackendSelection saved_sel_;
};

constexpr auto cipher = crypto::CipherId::Blowfish;
constexpr auto variant = kernels::KernelVariant::Optimized;
constexpr auto dir = kernels::KernelDirection::Encrypt;
constexpr size_t bytes = 512;

TEST_F(ExecBackendPolicy, SelectionRoundTrips)
{
    driver::setExecBackendSelection(
        driver::ExecBackendSelection::Interpreter);
    EXPECT_EQ(driver::execBackendSelection(),
              driver::ExecBackendSelection::Interpreter);
    driver::setExecBackendSelection(driver::ExecBackendSelection::Threaded);
    EXPECT_EQ(driver::execBackendSelection(),
              driver::ExecBackendSelection::Threaded);
}

TEST_F(ExecBackendPolicy, GateRunsOncePerKernelThenSticks)
{
    driver::setExecBackendSelection(driver::ExecBackendSelection::Threaded);

    const uint64_t checks0 = driver::backendGateChecks();
    const uint64_t threaded0 = driver::threadedRecordings();

    driver::recordKernelTrace(cipher, variant, bytes, dir);
    EXPECT_EQ(driver::backendGateChecks(), checks0 + 1);
    EXPECT_EQ(driver::threadedRecordings(), threaded0 + 1);

    // Steady state: same kernel records threaded with no new gate run.
    driver::recordKernelTrace(cipher, variant, bytes, dir);
    EXPECT_EQ(driver::backendGateChecks(), checks0 + 1);
    EXPECT_EQ(driver::threadedRecordings(), threaded0 + 2);

    // A different kernel is gated separately.
    driver::recordKernelTrace(cipher, variant, bytes,
                              kernels::KernelDirection::Decrypt);
    EXPECT_EQ(driver::backendGateChecks(), checks0 + 2);

    // Forgetting verdicts re-gates on next use.
    driver::resetExecBackendGate();
    driver::recordKernelTrace(cipher, variant, bytes, dir);
    EXPECT_EQ(driver::backendGateChecks(), checks0 + 3);
}

TEST_F(ExecBackendPolicy, AutoSelectionRecordsThreaded)
{
    driver::setExecBackendSelection(driver::ExecBackendSelection::Auto);
    const uint64_t threaded0 = driver::threadedRecordings();
    const uint64_t fallbacks0 = driver::backendGateFallbacks();
    driver::recordKernelTrace(cipher, variant, bytes, dir);
    EXPECT_EQ(driver::threadedRecordings(), threaded0 + 1);
    EXPECT_EQ(driver::backendGateFallbacks(), fallbacks0)
        << "threaded stream diverged from the interpreter";
}

TEST_F(ExecBackendPolicy, InterpreterSelectionNeverGates)
{
    driver::setExecBackendSelection(
        driver::ExecBackendSelection::Interpreter);
    const uint64_t checks0 = driver::backendGateChecks();
    const uint64_t threaded0 = driver::threadedRecordings();
    driver::recordKernelTrace(cipher, variant, bytes, dir);
    EXPECT_EQ(driver::backendGateChecks(), checks0);
    EXPECT_EQ(driver::threadedRecordings(), threaded0);
}

/**
 * The byte-identity guarantee CI enforces on whole BENCH files,
 * locally and per kernel: interpreter-selected, gate-adopted, and
 * steady-state threaded recordings hold equal packed traces.
 */
TEST_F(ExecBackendPolicy, BackendsProduceByteIdenticalTraces)
{
    driver::setExecBackendSelection(
        driver::ExecBackendSelection::Interpreter);
    auto ref = driver::recordKernelTrace(cipher, variant, bytes, dir);

    driver::setExecBackendSelection(driver::ExecBackendSelection::Threaded);
    auto gated = driver::recordKernelTrace(cipher, variant, bytes, dir);
    auto steady = driver::recordKernelTrace(cipher, variant, bytes, dir);

    const auto &want = ref.packed();
    EXPECT_TRUE(gated.packed() == want);
    EXPECT_TRUE(steady.packed() == want);
}

/**
 * RecordTiming regression: the timed fields are disjoint phases, so
 * their sum can never exceed the call's wall clock, and the
 * decode/gate splits appear exactly when the path that owns them ran.
 * (decodeSeconds was split out of recordSeconds when per-backend
 * record columns were added — recordSeconds is the producing run
 * only.)
 */
TEST_F(ExecBackendPolicy, TimingPhasesAreDisjointSplitsOfWallClock)
{
    auto timed = [](driver::RecordTiming &t) {
        const auto t0 = std::chrono::steady_clock::now();
        driver::recordKernelTrace(cipher, variant, bytes, dir, &t);
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    driver::setExecBackendSelection(
        driver::ExecBackendSelection::Interpreter);
    driver::RecordTiming ti;
    const double wall_i = timed(ti);
    EXPECT_GT(ti.setupSeconds, 0.0);
    EXPECT_GT(ti.recordSeconds, 0.0);
    EXPECT_EQ(ti.decodeSeconds, 0.0);
    EXPECT_EQ(ti.gateSeconds, 0.0);
    EXPECT_GT(ti.verifySeconds, 0.0);
    EXPECT_LE(ti.setupSeconds + ti.recordSeconds + ti.decodeSeconds
                  + ti.gateSeconds + ti.verifySeconds,
              wall_i);

    driver::setExecBackendSelection(driver::ExecBackendSelection::Threaded);
    driver::RecordTiming tg; // gated first use
    const double wall_g = timed(tg);
    EXPECT_GT(tg.recordSeconds, 0.0);
    EXPECT_GT(tg.decodeSeconds, 0.0);
    EXPECT_GT(tg.gateSeconds, 0.0);
    EXPECT_LE(tg.setupSeconds + tg.recordSeconds + tg.decodeSeconds
                  + tg.gateSeconds + tg.verifySeconds,
              wall_g);

    driver::RecordTiming ts; // steady state
    const double wall_s = timed(ts);
    EXPECT_GT(ts.recordSeconds, 0.0);
    EXPECT_GT(ts.decodeSeconds, 0.0);
    EXPECT_EQ(ts.gateSeconds, 0.0);
    EXPECT_LE(ts.setupSeconds + ts.recordSeconds + ts.decodeSeconds
                  + ts.gateSeconds + ts.verifySeconds,
              wall_s);
}

} // namespace
