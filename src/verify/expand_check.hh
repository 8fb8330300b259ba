/**
 * @file
 * Differential check of compressed-trace expansion.
 *
 * A CompressedTrace is only allowed to REPLACE its PackedTrace source
 * after this check proves, field by field and instruction by
 * instruction, that the expanded stream is identical to the packed
 * decode. That makes the driver's byte-identical-benchmarks guarantee
 * structural: any benchmark replayed from a compressed trace consumed
 * the exact DynInst sequence the packed trace would have produced, so
 * figure JSON cannot depend on whether compression was enabled. The
 * check expands through CompressedTrace::expandInto — the path replay
 * runs — into the same StreamMatchSink the execution-backend gate
 * uses, so both checks share one definition of stream equality.
 */

#ifndef CRYPTARCH_VERIFY_EXPAND_CHECK_HH
#define CRYPTARCH_VERIFY_EXPAND_CHECK_HH

#include <cstddef>
#include <string>
#include <string_view>

#include "isa/compressed_trace.hh"
#include "isa/packed_trace.hh"

namespace cryptarch::verify
{

/**
 * Expand @p compressed and compare every DynInst field against the
 * decode of @p packed. Returns true when the streams are identical;
 * on the first divergence returns false and, if @p why is non-null,
 * describes the sequence number and field that differ.
 */
bool verifyExpansion(const isa::PackedTrace &packed,
                     const isa::CompressedTrace &compressed,
                     std::string *why = nullptr);

/**
 * Name of the first DynInst field where @p a and @p b differ, or an
 * empty view when they are identical. The single definition of "the
 * same dynamic instruction" every differential check in the repo uses
 * (compressed-trace expansion, execution-backend adoption, the backend
 * parity tests).
 */
std::string_view firstDynInstDifference(const isa::DynInst &a,
                                        const isa::DynInst &b);

/**
 * A forwarding comparator sink: every emitted DynInst is compared
 * field-for-field against the sequential decode of a reference
 * PackedTrace (recorded with results kept) and, while the streams
 * still agree, forwarded to an optional downstream sink.
 *
 * This is how the driver's execution-backend adoption gate works: the
 * interpreter records the reference stream, the candidate backend runs
 * through a StreamMatchSink that simultaneously checks identity and
 * captures the stream for use — one candidate execution serves as both
 * proof and product. After the run, complete() says whether the
 * candidate emitted exactly the reference stream; on any divergence
 * why() names the sequence number and field.
 */
class StreamMatchSink final : public isa::TraceSink
{
  public:
    explicit StreamMatchSink(const isa::PackedTrace &reference,
                             isa::TraceSink *downstream = nullptr)
        : reader_(reference.reader()), expected_(reference.size()),
          downstream_(downstream)
    {
    }

    void emit(const isa::DynInst &inst) override;

    /** No divergence observed so far. */
    bool matched() const { return matched_; }
    /** Matched and saw exactly the reference's instruction count. */
    bool complete() const { return matched_ && seen_ == expected_; }
    /** Instructions received. */
    size_t seen() const { return seen_; }
    /** Description of the first divergence; empty while matched. */
    const std::string &why() const { return why_; }

  private:
    isa::PackedTrace::Reader reader_;
    size_t expected_;
    size_t seen_ = 0;
    isa::TraceSink *downstream_;
    bool matched_ = true;
    std::string why_;
};

} // namespace cryptarch::verify

#endif // CRYPTARCH_VERIFY_EXPAND_CHECK_HH
