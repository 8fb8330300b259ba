/** @file Tests for the page-mapped array behind the recording buffers. */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "util/page_array.hh"

namespace
{

using cryptarch::util::PageArray;

TEST(PageArray, NewArrayReadsZero)
{
    PageArray<uint32_t> a(100000);
    ASSERT_EQ(a.size(), 100000u);
    for (uint32_t v : a)
        ASSERT_EQ(v, 0u);
}

TEST(PageArray, ContentsSurviveGrowth)
{
    // 4 MB of values: the mapping doubles from one page through ten
    // remaps, any of which may move it.
    PageArray<uint32_t> a;
    for (uint32_t i = 0; i < (1u << 20); i++)
        a.push_back(i * 2654435761u);
    ASSERT_EQ(a.size(), 1u << 20);
    for (uint32_t i = 0; i < (1u << 20); i++)
        ASSERT_EQ(a[i], i * 2654435761u) << "element " << i;
}

TEST(PageArray, CopyIsDeepAndIndependent)
{
    PageArray<uint8_t> a(10000);
    a[0] = 1;
    a[9999] = 2;
    PageArray<uint8_t> b = a;
    ASSERT_EQ(b.size(), a.size());
    EXPECT_NE(b.data(), a.data());
    EXPECT_EQ(b[0], 1);
    EXPECT_EQ(b[9999], 2);
    b[0] = 3;
    a[9999] = 4;
    EXPECT_EQ(a[0], 1);
    EXPECT_EQ(b[9999], 2);

    PageArray<uint8_t> c(5);
    c = a;
    EXPECT_EQ(c.size(), a.size());
    EXPECT_EQ(c[9999], 4);
    c[9999] = 5;
    EXPECT_EQ(a[9999], 4);
}

TEST(PageArray, MovedFromArrayIsEmptyAndReusable)
{
    PageArray<uint32_t> a;
    for (uint32_t i = 0; i < 5000; i++)
        a.push_back(i);
    const uint32_t *data = a.data();

    PageArray<uint32_t> b = std::move(a);
    EXPECT_EQ(b.data(), data);
    EXPECT_EQ(b.size(), 5000u);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.data(), nullptr);

    for (uint32_t i = 0; i < 3; i++)
        a.push_back(7 + i);
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a[2], 9u);

    a = std::move(b);
    EXPECT_EQ(a.size(), 5000u);
    EXPECT_EQ(a[4999], 4999u);
    EXPECT_TRUE(b.empty());
    b.push_back(1);
    EXPECT_EQ(b[0], 1u);
}

TEST(PageArray, ZeroLengthMapsNothing)
{
    PageArray<uint8_t> a(0);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.data(), nullptr);
    EXPECT_EQ(a.begin(), a.end());
    PageArray<uint8_t> b = a;
    EXPECT_TRUE(b.empty());
}

} // namespace
