// FunctionRef: a non-owning reference to a callable (the function_ref
// idiom). It binds to a lambda, function object or std::function without
// copying or allocating, and is valid only while that callable lives:
// take it as a parameter of a function that calls it before returning,
// and store it only beside the owner of the callable (a task graph keeps
// one per task, bound to the body its arena holds).
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace ftla {

namespace detail {
/// Callables that can be empty: FunctionRef maps an empty one to `{}`.
template <class T>
inline constexpr bool kNullableCallable = std::is_pointer_v<T>;
template <class S>
inline constexpr bool kNullableCallable<std::function<S>> = true;
}  // namespace detail

template <class Sig>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  /// An empty reference (`{}`): converts to false.
  FunctionRef() noexcept = default;

  /// Refers to `f`. An empty std::function or a null function pointer
  /// gives an empty reference, as it would an empty std::function.
  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept {  // NOLINT(google-explicit-constructor)
    if constexpr (detail::kNullableCallable<std::decay_t<F>>) {
      if (!f) return;
    }
    obj_ = const_cast<void*>(static_cast<const void*>(std::addressof(f)));
    call_ = [](void* obj, Args... args) -> R {
      return std::invoke(*static_cast<std::remove_reference_t<F>*>(obj),
                         std::forward<Args>(args)...);
    };
  }

  explicit operator bool() const noexcept { return call_ != nullptr; }

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace ftla
