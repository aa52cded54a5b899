#include "net/socket_transport.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace jet::net {
namespace {

Status ErrnoError(const std::string& what) {
  return UnavailableError(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoError("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

Status FillUnixAddr(const std::string& path, sockaddr_un* addr) {
  if (path.size() >= sizeof(addr->sun_path)) {
    return InvalidArgumentError("unix socket path too long: " + path);
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::OK();
}

// Grace period Close() allows for flushing pending writes before the
// remainder is dropped.
constexpr int kCloseFlushMs = 2000;

}  // namespace

// ---- SocketConnection ------------------------------------------------------

SocketConnection::SocketConnection(int fd) : fd_(fd) {
  // The self-pipe lets SendFrame/Close wake the I/O thread out of poll()
  // without touching the socket. Nonblocking on both ends: a full pipe
  // just means a wakeup is already queued.
  if (::pipe(wake_pipe_) != 0) {
    wake_pipe_[0] = wake_pipe_[1] = -1;
  } else {
    (void)SetNonBlocking(wake_pipe_[0]);
    (void)SetNonBlocking(wake_pipe_[1]);
  }
  (void)SetNonBlocking(fd_);
#ifdef SO_NOSIGPIPE
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif
}

std::unique_ptr<SocketConnection> SocketConnection::Adopt(int fd) {
  return std::unique_ptr<SocketConnection>(new SocketConnection(fd));
}

Result<std::unique_ptr<SocketConnection>> SocketConnection::ConnectUnix(
    const std::string& path) {
  sockaddr_un addr{};
  JET_RETURN_IF_ERROR(FillUnixAddr(path, &addr));
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoError("socket(AF_UNIX)");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = ErrnoError("connect(" + path + ")");
    ::close(fd);
    return s;
  }
  return Adopt(fd);
}

Result<std::unique_ptr<SocketConnection>> SocketConnection::ConnectUnixWithRetry(
    const std::string& path, int64_t timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  Status last = UnavailableError("connect not attempted");
  while (true) {
    auto conn = ConnectUnix(path);
    if (conn.ok()) return conn;
    last = conn.status();
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return last;
}

Result<std::unique_ptr<SocketConnection>> SocketConnection::ConnectUnixWithBackoff(
    const std::string& path, const BackoffOptions& backoff, uint64_t stream_id) {
  RetryBackoff policy(backoff, stream_id);
  int attempts = 0;
  while (true) {
    ++attempts;
    auto conn = ConnectUnix(path);
    if (conn.ok()) return conn;
    auto delay = policy.NextDelay();
    if (!delay.has_value()) {
      return UnavailableError("connect(" + path + ") failed after " +
                              std::to_string(attempts) +
                              " attempts: " + conn.status().message());
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(*delay));
  }
}

SocketConnection::~SocketConnection() { Close(); }

void SocketConnection::Start(FrameHandler on_frame, CloseHandler on_close) {
  on_frame_ = std::move(on_frame);
  on_close_ = std::move(on_close);
  io_thread_ = std::thread([this] { IoLoop(); });
}

Status SocketConnection::SendFrame(Bytes frame) {
  if (frame.size() > kMaxWireFrameBytes) {
    return InvalidArgumentError("frame exceeds kMaxWireFrameBytes");
  }
  // jet-verify: allow(single-writer) — monotonic stats counter; fetch_add
  // is a full RMW so concurrent senders never lose increments, and readers
  // only compare totals after Close().
  sent_.fetch_add(1, std::memory_order_relaxed);

  // Attach the length prefix here so the I/O thread's write path is a
  // single contiguous buffer per frame.
  Bytes buf;
  buf.reserve(frame.size() + 4);
  uint32_t len = static_cast<uint32_t>(frame.size());
  buf.push_back(static_cast<uint8_t>(len));
  buf.push_back(static_cast<uint8_t>(len >> 8));
  buf.push_back(static_cast<uint8_t>(len >> 16));
  buf.push_back(static_cast<uint8_t>(len >> 24));
  buf.insert(buf.end(), frame.begin(), frame.end());
  {
    MutexLock lock(pending_mu_);
    if (closing_ || stopped_.load(std::memory_order_acquire)) {
      // jet-verify: allow(single-writer) — monotonic stats counter (RMW);
      // post-close sends count as sent+dropped to keep accounting balanced.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return UnavailableError("connection closed");
    }
    pending_.push_back(std::move(buf));
  }
  Wake();
  return Status::OK();
}

void SocketConnection::Wake() {
  if (wake_pipe_[1] >= 0) {
    uint8_t b = 1;
    ssize_t ignored = ::write(wake_pipe_[1], &b, 1);  // full pipe == already awake
    (void)ignored;
  }
}

bool SocketConnection::WritePending() {
  while (true) {
    const uint8_t* data = nullptr;
    size_t len = 0;
    {
      MutexLock lock(pending_mu_);
      if (pending_.empty()) return true;
      const Bytes& front = pending_.front();
      data = front.data() + front_offset_;
      len = front.size() - front_offset_;
    }
    // The front buffer stays stable while we write: only the I/O thread
    // pops, and SendFrame only appends at the back.
#ifdef MSG_NOSIGNAL
    ssize_t n = ::send(fd_, data, len, MSG_NOSIGNAL);
#else
    ssize_t n = ::send(fd_, data, len, 0);
#endif
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // poll for POLLOUT
      if (errno == EINTR) continue;
      return false;
    }
    MutexLock lock(pending_mu_);
    front_offset_ += static_cast<size_t>(n);
    if (front_offset_ == pending_.front().size()) {
      pending_.pop_front();
      front_offset_ = 0;
      // jet-verify: allow(single-writer) — monotonic stats counter with
      // exactly one writer (the I/O thread); readers compare after Close().
      delivered_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

bool SocketConnection::ParseFrames() {
  while (true) {
    size_t avail = read_buf_.size() - read_pos_;
    if (avail < 4) break;
    const uint8_t* p = read_buf_.data() + read_pos_;
    uint32_t len = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
                   (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
    if (len > kMaxWireFrameBytes) return false;  // protocol error
    if (avail < 4 + static_cast<size_t>(len)) break;
    Bytes frame(p + 4, p + 4 + len);
    read_pos_ += 4 + static_cast<size_t>(len);
    if (on_frame_) on_frame_(std::move(frame));
  }
  // Compact once the consumed prefix dominates, keeping parsing amortized
  // O(1) per byte instead of erase-from-front O(n^2).
  if (read_pos_ > 0 && read_pos_ * 2 >= read_buf_.size()) {
    read_buf_.erase(read_buf_.begin(), read_buf_.begin() + static_cast<ptrdiff_t>(read_pos_));
    read_pos_ = 0;
  }
  return true;
}

void SocketConnection::IoLoop() {
  bool failed = false;
  auto flush_deadline = std::chrono::steady_clock::time_point::max();
  uint8_t scratch[64 * 1024];

  while (true) {
    bool want_write = false;
    bool closing = false;
    {
      MutexLock lock(pending_mu_);
      want_write = !pending_.empty();
      closing = closing_;
    }
    if (failed) break;
    if (closing) {
      if (!want_write) break;  // flushed everything
      if (flush_deadline == std::chrono::steady_clock::time_point::max()) {
        flush_deadline =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(kCloseFlushMs);
      } else if (std::chrono::steady_clock::now() >= flush_deadline) {
        break;  // grace period over; the rest is dropped
      }
    }

    pollfd fds[2];
    fds[0].fd = fd_;
    fds[0].events = static_cast<short>(POLLIN | (want_write ? POLLOUT : 0));
    fds[0].revents = 0;
    fds[1].fd = wake_pipe_[0];
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    int nfds = wake_pipe_[0] >= 0 ? 2 : 1;
    int rc = ::poll(fds, static_cast<nfds_t>(nfds), 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      failed = true;
      continue;
    }

    if (nfds == 2 && (fds[1].revents & POLLIN)) {
      uint8_t drain[256];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }

    if (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
      while (true) {
        ssize_t n = ::recv(fd_, scratch, sizeof(scratch), 0);
        if (n > 0) {
          read_buf_.insert(read_buf_.end(), scratch, scratch + n);
          continue;
        }
        if (n == 0) {
          failed = true;  // peer EOF (includes kill -9 of the peer)
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        failed = true;
        break;
      }
      if (!ParseFrames()) failed = true;  // oversized-frame protocol error
    }

    if (!failed && (fds[0].revents & POLLOUT || want_write)) {
      if (!WritePending()) failed = true;
    }
  }

  // Account for everything that never made it out.
  {
    MutexLock lock(pending_mu_);
    closing_ = true;
    // jet-verify: allow(single-writer) — monotonic stats counter (RMW)
    // finalized under pending_mu_; read only after Close() returns.
    dropped_.fetch_add(pending_.size(), std::memory_order_relaxed);
    pending_.clear();
    front_offset_ = 0;
  }
  stopped_.store(true, std::memory_order_release);
  if (on_close_) on_close_();
}

void SocketConnection::Close() {
  bool already = false;
  {
    MutexLock lock(pending_mu_);
    already = closing_;
    closing_ = true;
  }
  if (!already) Wake();
  if (io_thread_.joinable() && io_thread_.get_id() != std::this_thread::get_id()) {
    io_thread_.join();
  }
  if (!io_thread_.joinable()) {
    // Never started: drop anything enqueued so accounting still balances.
    MutexLock lock(pending_mu_);
    // jet-verify: allow(single-writer) — monotonic stats counter (RMW)
    // finalized under pending_mu_; read only after Close() returns.
    dropped_.fetch_add(pending_.size(), std::memory_order_relaxed);
    pending_.clear();
    stopped_.store(true, std::memory_order_release);
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  for (int& p : wake_pipe_) {
    if (p >= 0) {
      ::close(p);
      p = -1;
    }
  }
}

// ---- SocketServer ----------------------------------------------------------

SocketServer::SocketServer(int fd, std::string path)
    : fd_(fd), path_(std::move(path)) {
  if (::pipe(wake_pipe_) != 0) {
    wake_pipe_[0] = wake_pipe_[1] = -1;
  } else {
    (void)SetNonBlocking(wake_pipe_[0]);
    (void)SetNonBlocking(wake_pipe_[1]);
  }
}

Result<std::unique_ptr<SocketServer>> SocketServer::ListenUnix(const std::string& path) {
  sockaddr_un addr{};
  JET_RETURN_IF_ERROR(FillUnixAddr(path, &addr));
  ::unlink(path.c_str());
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoError("socket(AF_UNIX)");
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = ErrnoError("bind(" + path + ")");
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) != 0) {
    Status s = ErrnoError("listen(" + path + ")");
    ::close(fd);
    return s;
  }
  return std::unique_ptr<SocketServer>(new SocketServer(fd, path));
}

SocketServer::~SocketServer() { Stop(); }

void SocketServer::Start(AcceptHandler on_accept) {
  on_accept_ = std::move(on_accept);
  started_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void SocketServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0].fd = fd_;
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = wake_pipe_[0];
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    int nfds = wake_pipe_[0] >= 0 ? 2 : 1;
    int rc = ::poll(fds, static_cast<nfds_t>(nfds), 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!(fds[0].revents & POLLIN)) continue;
    int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    if (on_accept_) on_accept_(SocketConnection::Adopt(client));
  }
}

void SocketServer::Stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (wake_pipe_[1] >= 0) {
    uint8_t b = 1;
    ssize_t ignored = ::write(wake_pipe_[1], &b, 1);
    (void)ignored;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!path_.empty()) ::unlink(path_.c_str());
  for (int& p : wake_pipe_) {
    if (p >= 0) {
      ::close(p);
      p = -1;
    }
  }
}

}  // namespace jet::net
