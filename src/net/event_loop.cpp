#include "net/event_loop.hpp"

#include <cerrno>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "util/check.hpp"

namespace marioh::net {

namespace {

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

EventLoop::EventLoop() {
  // The self-pipe is the only way to wake a poll with no timeout, so a
  // loop without one could never be stopped.
  int pipe_fds[2] = {-1, -1};
  MARIOH_CHECK(::pipe(pipe_fds) == 0);
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  SetNonBlocking(wake_read_);
  SetNonBlocking(wake_write_);
}

EventLoop::~EventLoop() {
  ::close(wake_read_);
  ::close(wake_write_);
}

api::Status EventLoop::Add(int fd, uint32_t interest, Callback callback) {
  if (fd < 0) return api::Status::InvalidArgument("negative fd");
  if (fds_.count(fd) > 0) {
    return api::Status::AlreadyExists("fd " + std::to_string(fd) +
                                      " is already registered");
  }
  fds_[fd] = Registration{interest, std::move(callback), ++generation_};
  return api::Status::Ok();
}

api::Status EventLoop::Modify(int fd, uint32_t interest) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return api::Status::NotFound("fd " + std::to_string(fd) +
                                 " is not registered");
  }
  it->second.interest = interest;
  return api::Status::Ok();
}

api::Status EventLoop::Remove(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return api::Status::NotFound("fd " + std::to_string(fd) +
                                 " is not registered");
  }
  fds_.erase(it);
  return api::Status::Ok();
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  Wakeup();
}

void EventLoop::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    posted_.push_back(std::move(fn));
  }
  // After the push: the loop drains the pipe before it swaps the queue
  // out, so this byte either finds the closure already swapped (a
  // harmless spurious wakeup) or wakes the poll that will.
  Wakeup();
}

void EventLoop::Wakeup() {
  // Async-signal-safe; a full pipe already wakes the loop.
  char byte = 0;
  [[maybe_unused]] ssize_t n = ::write(wake_write_, &byte, 1);
}

void EventLoop::WakeupDrain() {
  char buffer[64];
  while (::read(wake_read_, buffer, sizeof buffer) > 0) {
  }
}

void EventLoop::RunPosted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    batch.swap(posted_);
  }
  // Unlocked: a closure may Post again (it lands in the next batch).
  for (std::function<void()>& fn : batch) fn();
}

void EventLoop::Run() {
  while (!stop_.load(std::memory_order_acquire)) {
    // Collect (fd, events) ready pairs, then dispatch. Each pair also
    // snapshots the registration generation: if a callback removes a fd
    // later in the batch — and an accept() inside the same batch reuses
    // the fd number for a new registration — the stale event must not
    // reach the new owner.
    struct Ready {
      int fd;
      uint32_t mask;
      uint64_t generation;
    };
    std::vector<Ready> ready;
    std::vector<pollfd> pfds;
    pfds.reserve(fds_.size() + 1);
    pfds.push_back({wake_read_, POLLIN, 0});
    for (const auto& [fd, reg] : fds_) {
      short mask = 0;
      if (reg.interest & kRead) mask |= POLLIN;
      if (reg.interest & kWrite) mask |= POLLOUT;
      pfds.push_back({fd, mask, 0});
    }
    int n = ::poll(pfds.data(), pfds.size(), -1);
    if (n < 0) {
      // A signal (profiler tick, SIGCHLD, test harness) interrupting
      // the wait is routine: re-enter. Anything else is a broken
      // poll set — exit the loop rather than spin on it.
      if (errno == EINTR) continue;
      break;
    }
    for (const pollfd& p : pfds) {
      if (p.revents == 0) continue;
      if (p.fd == wake_read_) {
        WakeupDrain();
        continue;
      }
      uint32_t mask = 0;
      if (p.revents & (POLLIN | POLLPRI)) mask |= kRead;
      if (p.revents & POLLOUT) mask |= kWrite;
      if (p.revents & (POLLERR | POLLHUP | POLLNVAL)) mask |= kError;
      auto it = fds_.find(p.fd);
      if (it == fds_.end()) continue;
      ready.push_back({p.fd, mask, it->second.generation});
    }
    for (const Ready& r : ready) {
      auto it = fds_.find(r.fd);
      // Skip if removed by an earlier callback, or if the fd number was
      // re-registered since the batch was built (different generation).
      if (it == fds_.end() || it->second.generation != r.generation) {
        continue;
      }
      // Copying the callback keeps it alive if it removes itself.
      Callback callback = it->second.callback;
      callback(r.mask);
    }
    RunPosted();
  }
  // Closures posted before Stop() still run — for TcpServer, the wait
  // resolve of a job that finished just before shutdown.
  RunPosted();
}

}  // namespace marioh::net
