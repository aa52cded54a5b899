#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "common/serde.h"
#include "core/item.h"
#include "core/processors_window.h"
#include "nexmark/model.h"

namespace jet::core {
namespace {

TEST(AnyTest, HoldsAndReturnsValue) {
  Any a = Any::Of<int64_t>(42);
  EXPECT_FALSE(a.Empty());
  EXPECT_EQ(a.As<int64_t>(), 42);
}

TEST(AnyTest, TryAsChecksType) {
  Any a = Any::Of<std::string>("hello");
  EXPECT_EQ(a.TryAs<int64_t>(), nullptr);
  ASSERT_NE(a.TryAs<std::string>(), nullptr);
  EXPECT_EQ(*a.TryAs<std::string>(), "hello");
}

TEST(AnyTest, CopySharesImmutableValue) {
  Any a = Any::Of<std::string>("shared");
  Any b = a;  // refcount bump, no deep copy
  EXPECT_EQ(&a.As<std::string>(), &b.As<std::string>());
}

TEST(AnyTest, EmptyByDefault) {
  Any a;
  EXPECT_TRUE(a.Empty());
  EXPECT_EQ(a.TryAs<int>(), nullptr);
}

// An Item is two cache lines: 24 bytes of header plus the Any.
static_assert(sizeof(Item) <= 128);

// True if the value `a` holds lives inside `a` itself.
template <typename T>
bool StoredWithin(const Any& a) {
  const auto* value = reinterpret_cast<const unsigned char*>(&a.As<T>());
  const auto* self = reinterpret_cast<const unsigned char*>(&a);
  return value >= self && value + sizeof(T) <= self + sizeof(Any);
}

// Trivially copyable but larger than the inline buffer.
struct Wide {
  int64_t words[16] = {};
};
static_assert(sizeof(Wide) == 128);

TEST(AnyTest, StandardPayloadsAreStoredInline) {
  nexmark::Bid bid{7, 8, 900};
  nexmark::Event event;
  event.kind = nexmark::EventKind::kAuction;
  event.auction.id = 11;
  event.bid = bid;
  WindowResult<int64_t> result{3, 100, 200, 42};
  static_assert(sizeof(nexmark::Event) == 88);
  static_assert(Any::kStoresInline<nexmark::Event>);
  static_assert(!Any::kStoresInline<Wide>);

  Any a_bid = Any::Of(bid);
  Any a_event = Any::Of(event);
  Any a_result = Any::Of(result);
  for (const Any* a : {&a_bid, &a_event, &a_result}) {
    EXPECT_TRUE(a->IsInline());
    EXPECT_EQ(a->SharedCount(), 1);
  }
  EXPECT_TRUE(StoredWithin<nexmark::Bid>(a_bid));
  EXPECT_TRUE(StoredWithin<nexmark::Event>(a_event));
  EXPECT_TRUE(StoredWithin<WindowResult<int64_t>>(a_result));
  EXPECT_EQ(a_bid.As<nexmark::Bid>().price, 900);
  EXPECT_EQ(a_event.As<nexmark::Event>().auction.id, 11);
  EXPECT_EQ(a_event.As<nexmark::Event>().bid.bidder, 8);
  EXPECT_EQ(a_result.As<WindowResult<int64_t>>().value, 42);
}

TEST(AnyTest, OtherPayloadsAreBoxed) {
  Wide wide;
  wide.words[15] = 15;
  Any a_string = Any::Of<std::string>("boxed");
  Any a_bytes = Any::Of(Bytes{1, 2, 3});
  Any a_wide = Any::Of(wide);
  for (const Any* a : {&a_string, &a_bytes, &a_wide}) {
    EXPECT_FALSE(a->Empty());
    EXPECT_FALSE(a->IsInline());
  }
  EXPECT_FALSE(StoredWithin<std::string>(a_string));
  EXPECT_FALSE(StoredWithin<Bytes>(a_bytes));
  EXPECT_FALSE(StoredWithin<Wide>(a_wide));
  EXPECT_EQ(a_string.As<std::string>(), "boxed");
  EXPECT_EQ(a_bytes.As<Bytes>(), (Bytes{1, 2, 3}));
  EXPECT_EQ(a_wide.As<Wide>().words[15], 15);
}

TEST(AnyTest, MovedFromIsEmptyInBothModes) {
  Any inline_src = Any::Of<int64_t>(5);
  Any inline_dst = std::move(inline_src);
  EXPECT_TRUE(inline_src.Empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(inline_dst.As<int64_t>(), 5);

  Any boxed_src = Any::Of<std::string>("moved");
  const std::string* payload = &boxed_src.As<std::string>();
  Any boxed_dst;
  boxed_dst = std::move(boxed_src);
  EXPECT_TRUE(boxed_src.Empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(&boxed_dst.As<std::string>(), payload);  // same cell, no copy
  EXPECT_EQ(boxed_dst.SharedCount(), 1);

  // Moving an Any of one mode over one of the other releases the old value.
  inline_dst = std::move(boxed_dst);
  EXPECT_EQ(inline_dst.As<std::string>(), "moved");
  EXPECT_TRUE(boxed_dst.Empty());  // NOLINT(bugprone-use-after-move)
}

TEST(AnyTest, InlineCopiesAreIndependent) {
  nexmark::Bid bid{1, 2, 3};
  Any a = Any::Of(bid);
  Any b = a;
  EXPECT_NE(&a.As<nexmark::Bid>(), &b.As<nexmark::Bid>());
  EXPECT_EQ(b.As<nexmark::Bid>().price, 3);
  a.Emplace(nexmark::Bid{4, 5, 6});  // rewriting the source leaves the copy
  EXPECT_EQ(a.As<nexmark::Bid>().price, 6);
  EXPECT_EQ(b.As<nexmark::Bid>().price, 3);
  Any c;
  c = b;
  b.Reset();
  EXPECT_TRUE(b.Empty());
  EXPECT_EQ(c.As<nexmark::Bid>().auction, 1);
}

TEST(AnyTest, TryAsReturnsNullOnTypeMismatch) {
  Any inline_value = Any::Of<int64_t>(1);
  EXPECT_EQ(inline_value.TryAs<uint64_t>(), nullptr);
  EXPECT_EQ(inline_value.TryAs<double>(), nullptr);
  EXPECT_EQ(inline_value.TryAs<std::string>(), nullptr);
  ASSERT_NE(inline_value.TryAs<int64_t>(), nullptr);
  Any boxed = Any::Of(Bytes{9});
  EXPECT_EQ(boxed.TryAs<std::string>(), nullptr);
  EXPECT_EQ(boxed.TryAs<int64_t>(), nullptr);
  ASSERT_NE(boxed.TryAs<Bytes>(), nullptr);
}

TEST(ItemTest, FactoryKindsAndFields) {
  Item data = Item::Data<int>(7, 123, 99);
  EXPECT_TRUE(data.IsData());
  EXPECT_EQ(data.timestamp, 123);
  EXPECT_EQ(data.key_hash, 99u);
  EXPECT_EQ(data.payload.As<int>(), 7);

  Item wm = Item::WatermarkAt(555);
  EXPECT_TRUE(wm.IsWatermark());
  EXPECT_EQ(wm.timestamp, 555);

  Item barrier = Item::BarrierFor(3);
  EXPECT_TRUE(barrier.IsBarrier());
  EXPECT_EQ(barrier.timestamp, 3);

  Item done = Item::Done();
  EXPECT_TRUE(done.IsDone());
  EXPECT_FALSE(done.IsData());
}

}  // namespace
}  // namespace jet::core
