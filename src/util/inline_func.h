// InlineFunc: a move-only std::function replacement that stores its
// callable in a Cap-byte inline buffer. The event engine's InlineAction
// (sim/inline_action.h) is InlineFunc<void(), 96>. The async RPC layer
// keeps one reply continuation and one timeout continuation per pending
// call; with std::function both heap-allocate as soon as a capture
// exceeds two pointers, which put 2+ allocations on every RPC round
// trip. InlineFunc<void(const Reply&), 56> stores those captures in the
// Pending record itself — RPC steady state stops touching the heap.
//
// Move-only (a callable fires at most once and is moved into the event
// slab and flat tables), inline up to Cap bytes, transparent heap
// fallback beyond so the type stays a drop-in.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace cam {

template <typename Sig, std::size_t Cap = 64>
class InlineFunc;

template <typename R, typename... Args, std::size_t Cap>
class InlineFunc<R(Args...), Cap> {
 public:
  static constexpr std::size_t kInlineSize = Cap;

  InlineFunc() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunc> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunc(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
    }
  }

  InlineFunc(InlineFunc&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  InlineFunc& operator=(InlineFunc&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.buf_, buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunc(const InlineFunc&) = delete;
  InlineFunc& operator=(const InlineFunc&) = delete;

  ~InlineFunc() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  /// True when callables of type F are stored inline (no allocation).
  template <typename F>
  static constexpr bool stored_inline() {
    return fits_inline<std::decay_t<F>>();
  }

 private:
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  struct Ops {
    R (*invoke)(unsigned char*, Args&&...);
    // Move-construct into `dst` from `src`, then destroy `src`. The
    // engine relocates every action into its slab entry and out again to
    // run it; fusing move + destroy halves the virtual dispatch there.
    void (*relocate)(unsigned char* src, unsigned char* dst);
    void (*destroy)(unsigned char*);
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](unsigned char* b, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(b)))(
            std::forward<Args>(args)...);
      },
      [](unsigned char* src, unsigned char* dst) {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (static_cast<void*>(dst)) Fn(std::move(*s));
        s->~Fn();
      },
      [](unsigned char* b) { std::launder(reinterpret_cast<Fn*>(b))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](unsigned char* b, Args&&... args) -> R {
        return (**std::launder(reinterpret_cast<Fn**>(b)))(
            std::forward<Args>(args)...);
      },
      [](unsigned char* src, unsigned char* dst) {
        Fn** s = std::launder(reinterpret_cast<Fn**>(src));
        ::new (static_cast<void*>(dst)) Fn*(*s);
        // The pointer moved; nothing to destroy at the source.
      },
      [](unsigned char* b) {
        delete *std::launder(reinterpret_cast<Fn**>(b));
      },
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace cam
