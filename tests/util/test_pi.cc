/** @file Unit tests for the pi hex-digit generator. */

#include <gtest/gtest.h>

#include "crypto/blowfish.hh"
#include "util/pi.hh"

namespace
{

using cryptarch::util::piFractionWords;

// The leading fractional hex digits of pi are universally documented as
// the first Blowfish P-array entries.
TEST(Pi, FirstWordsMatchKnownDigits)
{
    auto words = piFractionWords(8);
    ASSERT_EQ(words.size(), 8u);
    EXPECT_EQ(words[0], 0x243F6A88u);
    EXPECT_EQ(words[1], 0x85A308D3u);
    EXPECT_EQ(words[2], 0x13198A2Eu);
    EXPECT_EQ(words[3], 0x03707344u);
    EXPECT_EQ(words[4], 0xA4093822u);
    EXPECT_EQ(words[5], 0x299F31D0u);
    EXPECT_EQ(words[6], 0x082EFA98u);
    EXPECT_EQ(words[7], 0xEC4E6C89u);
}

// A longer run must agree with a shorter run on the shared prefix
// (catches precision/guard-word bugs).
TEST(Pi, PrefixStability)
{
    auto small = piFractionWords(32);
    auto large = piFractionWords(1042);
    for (size_t i = 0; i < small.size(); i++)
        EXPECT_EQ(small[i], large[i]) << "word " << i;
}

// Known deep value: the last S-box word Blowfish consumes. Checked
// indirectly by the Blowfish known-answer tests; here we just pin the
// generator's output length and determinism.
TEST(Pi, DeterministicAndSized)
{
    auto a = piFractionWords(1042);
    auto b = piFractionWords(1042);
    ASSERT_EQ(a.size(), 1042u);
    EXPECT_EQ(a, b);
}

// Blowfish's table is generated at build time by running the same
// generator; it must agree with a live computation word for word.
TEST(Pi, BuildTimeTableMatchesLiveComputation)
{
    const auto &table = cryptarch::crypto::Blowfish::piWords();
    auto live = piFractionWords(table.size());
    ASSERT_EQ(live.size(), 1042u);
    for (size_t i = 0; i < table.size(); i++)
        ASSERT_EQ(table[i], live[i]) << "word " << i;
}

} // namespace
