#ifndef JETSIM_CORE_ITEM_H_
#define JETSIM_CORE_ITEM_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <typeinfo>
#include <utility>

#include "common/clock.h"

namespace jet::core {

/// Type-erased payload container for the data plane.
///
/// Trivially copyable values of up to `kInlineSize` bytes (alignment at most
/// 8) are stored inline, in the `Any` itself: making, moving and copying
/// one never touches the heap, and a copy (as made for broadcast edges) is
/// an independent byte copy. Every other value is boxed: it lives in an
/// immutable, reference-counted heap cell whose `std::shared_ptr` sits in
/// the same buffer, so copying a boxed `Any` only bumps the refcount. The
/// NEXMark `Event` and `Bid`, `WindowResult<int64_t>` and the scalar
/// payloads are all inline; strings, `Bytes` and records holding them are
/// boxed.
///
/// A reference from `As<T>()` / `TryAs<T>()` into an inline payload lives
/// only as long as the `Any` (and the `Item` holding it) stays put: moving
/// the item, or popping it from its inbox or queue, ends it. `As<T>()`
/// type-checks in debug builds.
class Any {
 public:
  /// Largest payload, in bytes, stored inline. Sized so that `Item` is two
  /// cache lines and the 88-byte NEXMark `Event` fits.
  static constexpr size_t kInlineSize = 96;

  /// True if values of type T are stored inline rather than boxed.
  template <typename T>
  static constexpr bool kStoresInline = std::is_trivially_copyable_v<T> &&
                                        sizeof(T) <= kInlineSize &&
                                        alignof(T) <= alignof(uint64_t);

  /// Empty payload.
  Any() = default;

  /// Creates an Any holding a copy/move of `value`.
  template <typename T>
  static Any Of(T value) {
    Any a;
    a.Emplace<T>(std::move(value));
    return a;
  }

  Any(const Any& other) : type_(other.type_) { CopyPayloadFrom(other); }

  Any(Any&& other) noexcept : type_(other.type_) { MovePayloadFrom(other); }

  Any& operator=(const Any& other) {
    if (this != &other) {
      Reset();
      type_ = other.type_;
      CopyPayloadFrom(other);
    }
    return *this;
  }

  Any& operator=(Any&& other) noexcept {
    if (this != &other) {
      Reset();
      type_ = other.type_;
      MovePayloadFrom(other);
    }
    return *this;
  }

  ~Any() { Reset(); }

  /// Replaces the held value with `value`.
  template <typename T>
  void Emplace(T value) {
    Reset();
    if constexpr (kStoresInline<T>) {
      ::new (static_cast<void*>(buf_)) T(value);
    } else {
      ::new (static_cast<void*>(buf_)) Box(std::make_shared<const T>(std::move(value)));
    }
    type_ = &TypeFor<T>::kInfo;
  }

  /// Drops the held value, leaving the Any empty.
  void Reset() {
    if (type_ != nullptr && type_->boxed) box().~Box();
    type_ = nullptr;
  }

  /// True if no value is held.
  bool Empty() const { return type_ == nullptr; }

  /// True if a value is held and it is stored inline.
  bool IsInline() const { return type_ != nullptr && !type_->boxed; }

  /// Returns the held value. The caller must know the correct type;
  /// debug builds assert on mismatch.
  template <typename T>
  const T& As() const {
    assert(type_ != nullptr && "Any::As on empty Any");
    assert(Holds<T>() && "Any::As type mismatch");
    return *Get<T>();
  }

  /// Returns a pointer to the held value if it has type T, else nullptr.
  template <typename T>
  const T* TryAs() const {
    return Holds<T>() ? Get<T>() : nullptr;
  }

  /// Number of Any instances sharing this payload: 0 when empty, 1 for an
  /// inline payload (every copy owns its bytes). Test inspection only:
  /// distinguishes a refcount-bumping copy of a boxed payload from a move,
  /// which leaves the source Empty() and the count unchanged.
  long SharedCount() const {
    if (type_ == nullptr) return 0;
    return type_->boxed ? box().use_count() : 1;
  }

 private:
  using Box = std::shared_ptr<const void>;

  // One static descriptor per payload type: the type's identity and where
  // its value lives.
  struct TypeInfo {
    const std::type_info* type;
    bool boxed;
  };
  template <typename T>
  struct TypeFor {
    static constexpr TypeInfo kInfo{&typeid(T), !kStoresInline<T>};
  };

  template <typename T>
  bool Holds() const {
    // The descriptor address settles the common case; type_info equality
    // covers descriptors duplicated across shared objects.
    return type_ != nullptr &&
           (type_ == &TypeFor<T>::kInfo || *type_->type == typeid(T));
  }

  template <typename T>
  const T* Get() const {
    if constexpr (kStoresInline<T>) {
      return std::launder(reinterpret_cast<const T*>(buf_));
    } else {
      return static_cast<const T*>(box().get());
    }
  }

  Box& box() { return *std::launder(reinterpret_cast<Box*>(buf_)); }
  const Box& box() const { return *std::launder(reinterpret_cast<const Box*>(buf_)); }

  // Both expect type_ already taken over from `other` and no live payload.
  // An inline payload is copied as the whole buffer, a fixed-size copy the
  // compiler inlines; bytes past the value are copied as unsigned chars,
  // which is well defined even where they were never written.
  void CopyPayloadFrom(const Any& other) {
    if (type_ == nullptr) return;
    if (type_->boxed) {
      ::new (static_cast<void*>(buf_)) Box(other.box());
    } else {
      std::memcpy(buf_, other.buf_, kInlineSize);
    }
  }
  void MovePayloadFrom(Any& other) {
    if (type_ == nullptr) return;
    if (type_->boxed) {
      ::new (static_cast<void*>(buf_)) Box(std::move(other.box()));
      other.box().~Box();
    } else {
      std::memcpy(buf_, other.buf_, kInlineSize);
    }
    other.type_ = nullptr;
  }

  const TypeInfo* type_ = nullptr;
  alignas(uint64_t) unsigned char buf_[kInlineSize];

  static_assert(sizeof(Box) <= kInlineSize && alignof(Box) <= alignof(uint64_t));
};

/// Kind of an item traveling along an edge.
enum class ItemKind : uint8_t {
  kData = 0,       ///< a user data record
  kWatermark = 1,  ///< event-time watermark (timestamp field)
  kBarrier = 2,    ///< snapshot barrier (timestamp field = snapshot id)
  kDone = 3,       ///< end-of-stream marker from one producer
};

/// The unit of data exchange between tasklets: either a data record with an
/// event timestamp and a routing hash, or a control item (watermark /
/// snapshot barrier / end-of-stream).
struct Item {
  ItemKind kind = ItemKind::kData;
  /// Event time for data items and watermarks; snapshot id for barriers.
  Nanos timestamp = 0;
  /// Precomputed hash of the record's key, used by partitioned edges. 0 for
  /// un-keyed records.
  uint64_t key_hash = 0;
  Any payload;

  /// Makes a data item.
  template <typename T>
  static Item Data(T value, Nanos event_time, uint64_t key_hash = 0) {
    Item item;
    item.kind = ItemKind::kData;
    item.timestamp = event_time;
    item.key_hash = key_hash;
    item.payload.Emplace<T>(std::move(value));
    return item;
  }

  /// Makes a watermark item: "no data item with timestamp <= ts will follow".
  static Item WatermarkAt(Nanos ts) {
    Item item;
    item.kind = ItemKind::kWatermark;
    item.timestamp = ts;
    return item;
  }

  /// Makes a snapshot barrier for the given snapshot id.
  static Item BarrierFor(int64_t snapshot_id) {
    Item item;
    item.kind = ItemKind::kBarrier;
    item.timestamp = snapshot_id;
    return item;
  }

  /// Makes an end-of-stream marker.
  static Item Done() {
    Item item;
    item.kind = ItemKind::kDone;
    return item;
  }

  bool IsData() const { return kind == ItemKind::kData; }
  bool IsWatermark() const { return kind == ItemKind::kWatermark; }
  bool IsBarrier() const { return kind == ItemKind::kBarrier; }
  bool IsDone() const { return kind == ItemKind::kDone; }
};

}  // namespace jet::core

#endif  // JETSIM_CORE_ITEM_H_
