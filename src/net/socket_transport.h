#ifndef JETSIM_NET_SOCKET_TRANSPORT_H_
#define JETSIM_NET_SOCKET_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/backoff.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace jet::net {

/// Upper bound on a single wire frame (length prefix value). A peer
/// announcing a larger frame is treated as a protocol error and the
/// connection is closed — a corrupt 4-byte prefix must not drive a
/// multi-gigabyte allocation.
inline constexpr uint32_t kMaxWireFrameBytes = 64u << 20;  // 64 MiB

/// A message-oriented, full-duplex connection over a Unix-domain stream
/// socket. Frames are delimited by a little-endian u32 length prefix.
///
/// Threading model: one I/O thread per connection owns the socket. It
/// polls the socket plus a self-pipe; reads are drained into a growing
/// buffer and parsed into frames (delivered via the frame handler *on the
/// I/O thread*), writes are drained nonblocking from a pending queue.
/// SendFrame from any thread is a bounded enqueue + self-pipe wakeup —
/// it never touches the socket and never blocks on I/O, which is what
/// lets exchange tasklets call it from a cooperative Call().
///
/// Delivery accounting (PR 2 invariant): after Close() has returned,
/// sent() == delivered() + dropped(). A frame counts as delivered once
/// fully written to the socket, and as dropped if it was still pending
/// (or arrived after) close.
class SocketConnection {
 public:
  /// Invoked on the I/O thread with each complete inbound frame (without
  /// the length prefix). Must not block and must not call Close() on this
  /// connection (it may call SendFrame).
  using FrameHandler = std::function<void(Bytes frame)>;
  /// Invoked exactly once, on the I/O thread, when the connection stops —
  /// peer EOF, I/O or protocol error, or local Close(). Peer death
  /// detection (the kill -9 path) hangs off this firing before Close()
  /// was requested locally.
  using CloseHandler = std::function<void()>;

  /// Connects to a Unix-domain socket path.
  static Result<std::unique_ptr<SocketConnection>> ConnectUnix(const std::string& path);

  /// Connects to a Unix-domain socket path, retrying until the server
  /// starts listening or `timeout_ms` elapses. This is the reconnect
  /// primitive: a restarting member races the coordinator's listener.
  static Result<std::unique_ptr<SocketConnection>> ConnectUnixWithRetry(
      const std::string& path, int64_t timeout_ms);

  /// Connects to a Unix-domain socket path under the shared RetryBackoff
  /// policy: bounded attempts with exponential backoff + seeded jitter
  /// before declaring the peer dead. `stream_id` decorrelates jitter
  /// between concurrent reconnectors (member index, connection ordinal).
  /// On exhaustion the error names the attempt count and the last cause.
  static Result<std::unique_ptr<SocketConnection>> ConnectUnixWithBackoff(
      const std::string& path, const BackoffOptions& backoff, uint64_t stream_id = 0);

  /// Wraps an already-connected fd (from accept(), or one end of a
  /// socketpair() in tests). Takes ownership of the fd.
  static std::unique_ptr<SocketConnection> Adopt(int fd);

  ~SocketConnection();
  SocketConnection(const SocketConnection&) = delete;
  SocketConnection& operator=(const SocketConnection&) = delete;

  /// Starts the I/O thread. Call exactly once before the first SendFrame.
  void Start(FrameHandler on_frame, CloseHandler on_close = nullptr);

  /// Enqueues one frame for transmission. Returns UnavailableError (and
  /// counts the frame as sent + dropped) if the connection is closed.
  // jet-verify audit: bounded work only — one uncontended queue push under
  // pending_mu_ and one nonblocking self-pipe byte; all socket I/O happens
  // on the connection's I/O thread.
  Status SendFrame(Bytes frame) JET_COOPERATIVE;

  /// Flushes pending writes (bounded grace period), closes the socket and
  /// joins the I/O thread. Idempotent; must not be called from handlers.
  void Close() JET_BLOCKING JET_EXCLUDES(pending_mu_);

  /// True until the connection stops (either side).
  bool IsOpen() const { return !stopped_.load(std::memory_order_acquire); }

  uint64_t sent() const { return sent_.load(std::memory_order_relaxed); }
  uint64_t delivered() const { return delivered_.load(std::memory_order_relaxed); }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  explicit SocketConnection(int fd);

  void IoLoop();
  /// Drains as much of the pending queue as the socket accepts; returns
  /// false on a fatal write error.
  bool WritePending() JET_EXCLUDES(pending_mu_);
  /// Parses complete frames out of read_buf_, dispatching each. Returns
  /// false on protocol error (oversized frame).
  bool ParseFrames();
  void Wake();

  int fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::thread io_thread_;
  FrameHandler on_frame_;
  CloseHandler on_close_;

  Mutex pending_mu_;
  std::deque<Bytes> pending_ JET_GUARDED_BY(pending_mu_);  // prefix-attached
  size_t front_offset_ JET_GUARDED_BY(pending_mu_) = 0;
  bool closing_ JET_GUARDED_BY(pending_mu_) = false;

  // I/O-thread-local inbound reassembly buffer.
  Bytes read_buf_;
  size_t read_pos_ = 0;

  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> sent_{0};
  std::atomic<uint64_t> delivered_{0};
  std::atomic<uint64_t> dropped_{0};
};

/// Accepts connections on a Unix-domain socket. Each accepted connection
/// is handed to the accept handler (on the accept thread) un-started: the
/// handler installs its frame handler and calls Start().
class SocketServer {
 public:
  using AcceptHandler = std::function<void(std::unique_ptr<SocketConnection>)>;

  /// Binds and listens on a Unix-domain socket path (unlinks a stale one).
  static Result<std::unique_ptr<SocketServer>> ListenUnix(const std::string& path);

  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Starts the accept thread. Call exactly once.
  void Start(AcceptHandler on_accept);

  /// Stops accepting and joins the accept thread. Idempotent. Already
  /// accepted connections are unaffected.
  void Stop() JET_BLOCKING;

  /// Bound socket path.
  const std::string& path() const { return path_; }

 private:
  SocketServer(int fd, std::string path);
  void AcceptLoop();

  int fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::string path_;
  std::thread accept_thread_;
  AcceptHandler on_accept_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
};

}  // namespace jet::net

#endif  // JETSIM_NET_SOCKET_TRANSPORT_H_
