// Small-buffer-optimized, move-only callables for the kernel hot path.
//
// InplaceFunction<R(Args...), N> stores callables up to N bytes inline; the
// steady-state event loop therefore schedules and runs callbacks without any
// heap traffic. Oversized or potentially-throwing-on-move callables fall back
// to a single heap cell, so the type accepts anything std::function does
// (including std::function itself, for legacy call sites).
//
// Differences from std::function, chosen deliberately for the kernel:
//   - move-only (a callable is built in place and never copied);
//   - invoking an empty InplaceFunction is undefined (the scheduler never
//     stores empty callbacks; check with operator bool if unsure);
//   - no target()/target_type() RTTI surface.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace mts::sim {

/// 40 inline bytes + the vtable pointer keeps sizeof(InplaceFunction) at 48,
/// so a scheduler pool slot (callback + bucket/free-list link + profiler
/// site) is 64 bytes, one cache line's worth. Callbacks run in place in
/// their slot and the overflow heap sifts keys that point at slots, so the
/// callback size sets no move cost. Still roomy enough for a whole
/// std::function (32 bytes on libstdc++).
inline constexpr std::size_t kCallbackInlineSize = 40;

/// Tag for the argument-dropping constructor: stores a nullary callable in a
/// slot whose call signature takes arguments, invoking it with none. Lets an
/// edge listener (`void()`) live directly in a `(old, new)` listener slot
/// without nesting a second type-erased wrapper.
struct ignore_args_t {
  explicit ignore_args_t() = default;
};
inline constexpr ignore_args_t ignore_args{};

template <typename Signature, std::size_t InlineSize = kCallbackInlineSize>
class InplaceFunction;

template <typename R, typename... Args, std::size_t InlineSize>
class InplaceFunction<R(Args...), InlineSize> {
 public:
  InplaceFunction() noexcept = default;
  InplaceFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InplaceFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InplaceFunction(F&& f) {  // NOLINT(runtime/explicit)
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &InlineOps<D, false>::vt;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      vt_ = &HeapOps<D, false>::vt;
    }
  }

  /// Stores nullary `f`; invocations drop the Args values.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<std::is_invocable_r_v<R, D&>>>
  InplaceFunction(ignore_args_t, F&& f) {
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &InlineOps<D, true>::vt;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      vt_ = &HeapOps<D, true>::vt;
    }
  }

  InplaceFunction(InplaceFunction&& other) noexcept { move_from(other); }

  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { reset(); }

  void reset() noexcept {
    if (vt_ != nullptr) {
      if (!vt_->trivial) vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  /// Precondition: *this holds a callable.
  R operator()(Args... args) {
    return vt_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct VTable {
    R (*invoke)(void*, Args&&...);
    /// Move-constructs the payload into `dst` from `src` and ends `src`'s
    /// payload lifetime (for heap payloads this just transfers the pointer).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    /// Trivially copyable inline payload: relocation is a fixed-size memcpy
    /// and destruction is a no-op, skipping both indirect calls. This is the
    /// hot case -- model callbacks capture `this` plus a slot index.
    bool trivial;
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= InlineSize && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D, bool IgnoreArgs>
  struct InlineOps {
    static D* get(void* b) noexcept {
      return std::launder(reinterpret_cast<D*>(b));
    }
    static R invoke(void* b, Args&&... args) {
      if constexpr (IgnoreArgs) {
        (..., static_cast<void>(args));
        return (*get(b))();
      } else {
        return (*get(b))(std::forward<Args>(args)...);
      }
    }
    static void relocate(void* dst, void* src) noexcept {
      D* s = get(src);
      ::new (dst) D(std::move(*s));
      s->~D();
    }
    static void destroy(void* b) noexcept { get(b)->~D(); }
    static constexpr VTable vt{&invoke, &relocate, &destroy,
                               std::is_trivially_copyable_v<D> &&
                                   std::is_trivially_destructible_v<D>};
  };

  template <typename D, bool IgnoreArgs>
  struct HeapOps {
    static D* get(void* b) noexcept {
      return *std::launder(reinterpret_cast<D**>(b));
    }
    static R invoke(void* b, Args&&... args) {
      if constexpr (IgnoreArgs) {
        (..., static_cast<void>(args));
        return (*get(b))();
      } else {
        return (*get(b))(std::forward<Args>(args)...);
      }
    }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) D*(get(src));
    }
    static void destroy(void* b) noexcept { delete get(b); }
    static constexpr VTable vt{&invoke, &relocate, &destroy, false};
  };

  void move_from(InplaceFunction& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      if (vt_->trivial) {
        std::memcpy(buf_, other.buf_, InlineSize);
      } else {
        vt_->relocate(buf_, other.buf_);
      }
      other.vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[InlineSize];
  const VTable* vt_ = nullptr;
};

}  // namespace mts::sim
