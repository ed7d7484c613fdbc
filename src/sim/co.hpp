// Co<T>: an awaitable sub-procedure coroutine.
//
// The paper's algorithms are structured as procedures that perform
// register operations (WriteMsgs, ReadMsgs, SendHeartbeat,
// ReceiveHeartbeat in Figures 4-5) and are called from a main loop
// (Figure 6). In the simulator a procedure call is `co_await proc(...)`:
// control transfers into the child coroutine immediately (a call costs no
// extra step), the child's own register operations suspend the whole
// stack, and on completion control transfers back to the caller, again
// within the same step. Step accounting therefore charges procedures
// only for the shared-memory operations and explicit yields they perform,
// matching the paper's model where a "step" is a shared-memory access or
// an explicit local transition -- not a function call.
//
// Outside the simulator, run_inline() drives a Co to completion on the
// calling thread: with awaiters that are always ready the whole stack
// runs as plain calls, which is how the real-threads backend executes
// the same protocol coroutines the explorer checks.
//
// Ownership: the Co object (living in the caller's frame as the awaited
// temporary) owns the child frame, so destroying a suspended call stack
// from the top (process crash) releases every frame via RAII.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "util/assert.hpp"

namespace tbwf::sim {

namespace detail {

struct CoFinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <class Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    auto continuation = h.promise().continuation;
    return continuation ? continuation : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

struct CoPromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }
  CoFinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

}  // namespace detail

template <class T>
class [[nodiscard]] Co {
 public:
  struct promise_type : detail::CoPromiseBase {
    std::optional<T> value;

    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    template <class U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co& operator=(Co&&) = delete;
  ~Co() {
    if (handle_) handle_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;  // start the child immediately (same step)
  }
  T await_resume() {
    auto& p = handle_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
    TBWF_ASSERT(p.value.has_value(), "Co<T> completed without a value");
    return std::move(*p.value);
  }

  /// Run the whole call stack to completion on the calling thread, with
  /// no scheduler: every awaiter it meets must be ready (the rt
  /// backend's registers complete their operation before the await).
  /// Exceptions reach the caller.
  T run_inline() && {
    handle_.resume();
    TBWF_ASSERT(handle_.done(), "Co<T>::run_inline: an awaiter suspended");
    return await_resume();
  }

 private:
  explicit Co(std::coroutine_handle<promise_type> h) : handle_(h) {}
  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Co<void> {
 public:
  struct promise_type : detail::CoPromiseBase {
    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() noexcept {}
  };

  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co& operator=(Co&&) = delete;
  ~Co() {
    if (handle_) handle_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;
  }
  void await_resume() {
    auto& p = handle_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
  }

 private:
  explicit Co(std::coroutine_handle<promise_type> h) : handle_(h) {}
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace tbwf::sim
