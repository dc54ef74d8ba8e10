#pragma once

// Lazy C++20 coroutine task — the unit of work the event-loop executor
// (runtime/event_loop.hpp) schedules. A Task<T> does not run until awaited:
// `co_await task` starts the child coroutine with symmetric transfer and
// resumes the parent when the child reaches its final suspend point, so a
// chain of N awaits costs N frame allocations and zero threads, mutexes, or
// heap queues. Exceptions propagate through co_await exactly like a normal
// call: a child that throws re-throws in the awaiting parent.
//
// Ownership: the Task object owns the coroutine frame and destroys it on
// destruction (frames are always suspended when destroyed — at the initial
// suspend point if never awaited, at the final one if completed). Tasks are
// move-only; awaiting is a consuming operation (`co_await std::move(t)` or
// awaiting a prvalue). EventLoop::spawn is the one other owner: it takes the
// frame out of a Task<void> (release()) and marks the promise as a detached
// root of that loop; such a frame destroys itself in its final awaiter and
// then reports completion to the loop, and an exception escaping it
// terminates, because a detached root has no awaiter to rethrow into.
//
// Thread-safety: a Task is a value object confined to one coroutine chain;
// resuming the same handle from two threads is a race by construction. Cross-
// thread scheduling is the event loop's job, not the task's.

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

namespace wavekey::runtime {

class EventLoop;

template <typename T>
class Task;

namespace detail {

/// Completion report of a detached root whose frame is already destroyed
/// (defined in event_loop.cpp).
void detached_finished(EventLoop* loop) noexcept;

/// Final awaiter: symmetric transfer back to whoever co_awaited this task
/// (or a no-op if the task was started without a continuation). A detached
/// root destroys its own frame first and only then reports completion, so
/// EventLoop::drain() returning implies the frame is freed.
struct TaskFinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
    if (EventLoop* loop = h.promise().detached_on) {
      h.destroy();  // h is dead from here on
      detached_finished(loop);
      return std::noop_coroutine();
    }
    std::coroutine_handle<> continuation = h.promise().continuation;
    return continuation ? continuation : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

struct TaskPromiseBase {
  std::coroutine_handle<> continuation;  ///< resumed at final_suspend
  EventLoop* detached_on = nullptr;      ///< set by EventLoop::spawn
  std::suspend_always initial_suspend() noexcept { return {}; }  // lazy start
  TaskFinalAwaiter final_suspend() noexcept { return {}; }
  /// Stores an escaping exception for the awaiter; a detached root has none,
  /// and hiding the error would corrupt the ledgers the serving layers keep.
  void capture(std::exception_ptr& error) {
    if (detached_on) std::terminate();
    error = std::current_exception();
  }
};

template <typename T>
struct TaskPromise : TaskPromiseBase {
  std::optional<T> value;
  std::exception_ptr error;

  Task<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }
  void unhandled_exception() { capture(error); }
  T result() {
    if (error) std::rethrow_exception(error);
    return std::move(*value);
  }
};

template <>
struct TaskPromise<void> : TaskPromiseBase {
  std::exception_ptr error;

  Task<void> get_return_object();
  void return_void() {}
  void unhandled_exception() { capture(error); }
  void result() {
    if (error) std::rethrow_exception(error);
  }
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;

  Task() noexcept = default;
  explicit Task(std::coroutine_handle<promise_type> handle) noexcept : handle_(handle) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(handle_); }

  /// Consuming await: starts the child via symmetric transfer; the awaiting
  /// coroutine resumes (on the same thread the child finished on) once the
  /// child completes, receiving its value or rethrown exception.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) noexcept {
        handle.promise().continuation = awaiting;
        return handle;
      }
      T await_resume() { return handle.promise().result(); }
    };
    return Awaiter{handle_};
  }

  /// Gives up ownership of the frame (EventLoop::spawn adopts it).
  std::coroutine_handle<promise_type> release() noexcept { return std::exchange(handle_, {}); }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

namespace detail {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace wavekey::runtime
