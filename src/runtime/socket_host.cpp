#include "runtime/socket_host.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "common/serde.hpp"

namespace tbft::runtime {

namespace {
constexpr NodeId kNoPeer = static_cast<NodeId>(-1);
/// Cap on accepted-but-unidentified connections: strangers who never send a
/// valid hello must not exhaust fds. Oldest is evicted on overflow.
constexpr std::size_t kMaxPendingAccepts = 64;
}  // namespace

// ---- connection state ------------------------------------------------------

/// One TCP connection, owned by the IO thread. Dialed connections know their
/// peer from birth; accepted ones learn it from the hello.
struct SocketHost::Conn {
  net::Fd fd;
  NodeId peer{kNoPeer};
  bool dialed{false};       // we initiated (peer id < ours)
  bool connecting{false};   // non-blocking connect still in flight
  bool hello_sent{false};
  bool hello_received{false};
  bool dead{false};         // marked for sweep at the end of the poll pass

  net::FrameDecoder decoder;

  // Write side: control frames (hello/ping/pong) in a flat byte buffer that
  // always flushes ahead of data, then the current data frame as a shared
  // Payload + header, written with writev straight from the shared bytes.
  std::vector<std::uint8_t> ctrl;
  std::size_t ctrl_off{0};
  Payload cur;
  bool cur_valid{false};
  std::uint8_t cur_header[net::kMaxDataHeaderBytes]{};
  std::size_t cur_header_len{0};  // kData header, or kRouted header + route
  std::size_t cur_off{0};         // bytes of header+payload already written

  Time last_rx{0};
  bool ping_outstanding{false};
  std::uint64_t unknown_synced{0};  // decoder dropped_unknown already mirrored

  explicit Conn(net::Fd f) : fd(std::move(f)) {}
  [[nodiscard]] bool established() const noexcept {
    return hello_sent && hello_received && !connecting;
  }
};

/// Per-peer outbound queue and redial bookkeeping. The queue is guarded by
/// out_mx_ (node thread pushes, IO thread pops); the rest is IO-thread-only.
struct SocketHost::PeerState {
  std::deque<Payload> queue;  // guarded by out_mx_
  std::size_t dropped{0};     // guarded by out_mx_ (mirrored into stats_)

  Conn* conn{nullptr};        // IO thread: the live connection, if any
  std::uint32_t attempts{0};  // IO thread: consecutive failed dials
  Time next_dial{0};          // IO thread: earliest redial time
};

Duration jittered_backoff(std::uint32_t attempt, Duration base, Duration cap,
                          double jitter_frac, Rng& rng) noexcept {
  const Duration d = backoff_delay(attempt, base, cap);
  if (jitter_frac <= 0 || d <= 0) return d;
  const auto span = static_cast<Duration>(static_cast<double>(d) * jitter_frac);
  if (span <= 0) return d;
  const Duration lo = d - span / 2;
  const auto offset =
      static_cast<Duration>(rng.uniform(0, static_cast<std::uint64_t>(span)));
  return lo + offset;
}

// ---- construction / lifecycle ----------------------------------------------

SocketHost::SocketHost(SocketHostConfig cfg, std::unique_ptr<ProtocolNode> node)
    : cfg_(std::move(cfg)), node_(std::move(node)), loop_(std::chrono::steady_clock::now()) {
  TBFT_ASSERT_MSG(cfg_.n >= 1 && cfg_.id < cfg_.n, "bad SocketHostConfig id/n");
  if (cfg_.peers.size() < cfg_.n) cfg_.peers.resize(cfg_.n);

  // Same per-node Rng derivation as Simulation / LocalRunner: fork the root
  // id+1 times, keep the last.
  Rng root(cfg_.seed);
  for (NodeId i = 0; i <= cfg_.id; ++i) rng_ = root.fork();
  // The IO thread's jitter stream is derived from a salted root, NOT forked
  // from rng_: the node's stream must stay identical across all transports.
  Rng io_root(mix64(cfg_.seed) ^ 0x696f'6a69'7474'6572ULL);
  for (NodeId i = 0; i <= cfg_.id; ++i) io_rng_ = io_root.fork();

  std::string err;
  listener_ = net::tcp_listen(cfg_.listen, /*backlog=*/16, err);
  TBFT_ASSERT_MSG(listener_.valid(), "SocketHost: listen failed");
  listen_port_ = net::local_port(listener_.get());

  int pipe_fds[2] = {-1, -1};
  TBFT_ASSERT_MSG(::pipe(pipe_fds) == 0, "SocketHost: pipe failed");
  wake_rd_ = net::Fd(pipe_fds[0]);
  wake_wr_ = net::Fd(pipe_fds[1]);
  net::set_nonblocking(wake_rd_.get());
  net::set_nonblocking(wake_wr_.get());

  peers_.resize(cfg_.n);
  for (auto& p : peers_) p = std::make_unique<PeerState>();

  node_->bind(*this);
}

SocketHost::~SocketHost() { stop(); }

void SocketHost::set_peer_endpoint(NodeId peer, net::Endpoint ep) {
  TBFT_ASSERT_MSG(!started_, "set_peer_endpoint after start()");
  cfg_.peers.at(peer) = std::move(ep);
}

void SocketHost::add_commit_sink(CommitSink& sink) {
  TBFT_ASSERT_MSG(!started_, "register commit sinks before start()");
  commit_sinks_.push_back(&sink);
}

void SocketHost::start() {
  TBFT_ASSERT_MSG(!started_, "start() called twice");
  started_ = true;
  io_thread_ = std::thread([this] { run_io(); });
  loop_.start(*node_);
}

void SocketHost::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stop_.store(true);
  loop_.stop();
  io_wake();
  if (io_thread_.joinable()) io_thread_.join();
}

// ---- node side (Host interface) --------------------------------------------

void SocketHost::send(NodeId dst, Payload payload) {
  if (dst == cfg_.id) {
    // Self-sends never touch the network: straight to the own mailbox, the
    // same semantics as the Simulation and the LocalRunner.
    loop_.deliver(cfg_.id, std::move(payload));
    return;
  }
  if (dst >= cfg_.n) return;
  bool was_empty = false;
  {
    std::lock_guard<std::mutex> lk(out_mx_);
    PeerState& p = *peers_[dst];
    if (p.queue.size() >= cfg_.max_queue) {
      ++p.dropped;
      stats_.queue_dropped.fetch_add(1, std::memory_order_relaxed);
      return;  // bounded queue: drop newest, count, never block the node
    }
    was_empty = p.queue.empty();
    p.queue.push_back(std::move(payload));
  }
  if (was_empty) io_wake();
}

void SocketHost::broadcast(Payload payload) {
  // Refcount bumps only: every peer queue shares the same payload bytes.
  for (NodeId dst = 0; dst < cfg_.n; ++dst) {
    if (dst == cfg_.id) continue;
    send(dst, payload);
  }
  send(cfg_.id, std::move(payload));
}

void SocketHost::publish_commit(std::uint64_t stream, Value value,
                                std::span<const std::uint8_t> payload) {
  const Commit commit{cfg_.id, stream, value, payload, now()};
  std::lock_guard<std::mutex> lk(commit_mx_);
  for (CommitSink* sink : commit_sinks_) sink->on_commit(commit);
}

// ---- IO thread -------------------------------------------------------------

void SocketHost::io_wake() const noexcept {
  const std::uint8_t b = 1;
  [[maybe_unused]] const auto r = ::write(wake_wr_.get(), &b, 1);
}

void SocketHost::io_queue_ctrl(Conn& c, net::FrameKind kind,
                               std::span<const std::uint8_t> payload) {
  std::uint8_t hdr[net::kFrameHeaderBytes];
  net::put_frame_header(hdr, kind, static_cast<std::uint32_t>(payload.size()));
  c.ctrl.insert(c.ctrl.end(), hdr, hdr + sizeof hdr);
  c.ctrl.insert(c.ctrl.end(), payload.begin(), payload.end());
}

bool SocketHost::io_wants_write(const Conn& c) {
  if (c.connecting) return true;  // connect completion reports as writable
  if (c.ctrl_off < c.ctrl.size() || c.cur_valid) return true;
  if (!c.established() || c.peer == kNoPeer) return false;
  std::lock_guard<std::mutex> lk(out_mx_);
  return !peers_[c.peer]->queue.empty();
}

void SocketHost::io_dial(NodeId peer) {
  PeerState& p = *peers_[peer];
  stats_.dials.fetch_add(1, std::memory_order_relaxed);
  bool in_progress = false;
  std::string err;
  net::Fd fd = net::tcp_dial(cfg_.peers[peer], in_progress, err);
  if (!fd.valid()) {
    ++p.attempts;
    p.next_dial = now() + jittered_backoff(p.attempts, cfg_.backoff_base,
                                           cfg_.backoff_cap, cfg_.backoff_jitter, io_rng_);
    return;
  }
  auto c = std::make_unique<Conn>(std::move(fd));
  c->peer = peer;
  c->dialed = true;
  c->connecting = in_progress;
  c->last_rx = now();
  c->decoder = net::FrameDecoder(net::FrameDecoder::Limits{cfg_.max_frame_bytes});
  if (!in_progress) {
    // Connected immediately (loopback): send our hello now.
    serde::Writer w;
    net::Hello h;
    h.node = cfg_.id;
    h.n = cfg_.n;
    h.encode(w);
    io_queue_ctrl(*c, net::FrameKind::kHello, w.data());
    c->hello_sent = true;
  }
  p.conn = c.get();
  conns_.push_back(std::move(c));
}

void SocketHost::io_accept_pending() {
  for (;;) {
    net::Fd fd = net::tcp_accept(listener_.get());
    if (!fd.valid()) return;
    stats_.accepts.fetch_add(1, std::memory_order_relaxed);
    std::size_t pending = 0;
    Conn* oldest = nullptr;
    for (const auto& c : conns_) {
      if (c->peer == kNoPeer && !c->dead) {
        ++pending;
        if (oldest == nullptr) oldest = c.get();
      }
    }
    if (pending >= kMaxPendingAccepts && oldest != nullptr) {
      // Strangers who never identify themselves must not exhaust fds.
      stats_.rx_junk.fetch_add(1, std::memory_order_relaxed);
      oldest->dead = true;
    }
    auto c = std::make_unique<Conn>(std::move(fd));
    c->last_rx = now();
    c->decoder = net::FrameDecoder(net::FrameDecoder::Limits{cfg_.max_frame_bytes});
    conns_.push_back(std::move(c));  // identity pending: wait for its hello
  }
}

bool SocketHost::io_on_hello(Conn& c, std::vector<std::uint8_t>&& body) {
  serde::Reader r(body);
  const net::Hello h = net::Hello::decode(r);
  const bool shape_ok = r.done() && h.n == cfg_.n && h.node < cfg_.n && h.node != cfg_.id;
  // Direction check: only a higher id dials us, and a dialed peer must
  // identify as the node we dialed.
  const bool direction_ok =
      c.dialed ? (h.node == c.peer) : (shape_ok && h.node > cfg_.id);
  if (!shape_ok || !direction_ok) {
    stats_.rejected_hello.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (c.hello_received) {
    stats_.rx_junk.fetch_add(1, std::memory_order_relaxed);  // duplicate hello
    return true;
  }
  c.hello_received = true;

  if (!c.dialed) {
    c.peer = h.node;
    PeerState& p = *peers_[c.peer];
    if (p.conn != nullptr && p.conn != &c) {
      // The peer restarted and redialed: the old socket is half-open
      // garbage. Replace it.
      io_drop_conn(*p.conn, /*established_loss=*/p.conn->established());
    }
    p.conn = &c;
    // Answer with our own hello.
    serde::Writer w;
    net::Hello mine;
    mine.node = cfg_.id;
    mine.n = cfg_.n;
    mine.encode(w);
    io_queue_ctrl(c, net::FrameKind::kHello, w.data());
    c.hello_sent = true;
  }
  if (c.established()) {
    stats_.handshakes.fetch_add(1, std::memory_order_relaxed);
    peers_[c.peer]->attempts = 0;  // completed handshake resets backoff
  }
  return true;
}

void SocketHost::io_on_frame(Conn& c, net::FrameKind kind,
                             std::vector<std::uint8_t>&& body) {
  switch (kind) {
    case net::FrameKind::kHello:
      if (!io_on_hello(c, std::move(body))) c.dead = true;
      return;
    case net::FrameKind::kPing:
      if (!c.established()) {
        stats_.rx_junk.fetch_add(1, std::memory_order_relaxed);
        c.dead = true;
        return;
      }
      io_queue_ctrl(c, net::FrameKind::kPong);
      return;
    case net::FrameKind::kPong:
      return;  // last_rx already refreshed by the read itself
    case net::FrameKind::kData:
    case net::FrameKind::kRouted: {
      std::uint32_t route = 0;
      if (!c.established() ||
          (kind == net::FrameKind::kRouted && !net::take_route(body, route))) {
        // Data before the handshake completes, or a malformed route, is a
        // protocol violation: count it and drop the stranger.
        stats_.rx_junk.fetch_add(1, std::memory_order_relaxed);
        c.dead = true;
        return;
      }
      stats_.frames_rx.fetch_add(1, std::memory_order_relaxed);
      Payload payload(std::move(body));  // adopt: no copy of the frame body
      payload.set_route(route);          // before publication to the node
      loop_.deliver(c.peer, std::move(payload));
      return;
    }
  }
}

void SocketHost::io_handle_readable(Conn& c) {
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t got = ::recv(c.fd.get(), buf, sizeof buf, 0);
    if (got > 0) {
      stats_.bytes_rx.fetch_add(static_cast<std::uint64_t>(got),
                                std::memory_order_relaxed);
      c.last_rx = now();
      c.ping_outstanding = false;
      const bool ok = c.decoder.feed(
          std::span<const std::uint8_t>(buf, static_cast<std::size_t>(got)),
          [this, &c](net::FrameKind k, std::vector<std::uint8_t>&& body) {
            io_on_frame(c, k, std::move(body));
          });
      const auto& dc = c.decoder.counters();
      if (dc.dropped_unknown > c.unknown_synced) {
        stats_.rx_unknown.fetch_add(dc.dropped_unknown - c.unknown_synced,
                                    std::memory_order_relaxed);
        c.unknown_synced = dc.dropped_unknown;
      }
      if (!ok) {
        // Poisoned stream (lying length prefix): cannot resync, drop.
        stats_.rx_oversize.fetch_add(1, std::memory_order_relaxed);
        c.dead = true;
        return;
      }
      if (c.dead) return;
      if (static_cast<std::size_t>(got) < sizeof buf) return;  // drained
      continue;
    }
    if (got == 0) {  // orderly close
      c.dead = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    c.dead = true;
    return;
  }
}

void SocketHost::io_handle_writable(Conn& c) {
  if (c.connecting) {
    const int err = net::dial_error(c.fd.get());
    if (err != 0) {
      c.dead = true;
      return;
    }
    c.connecting = false;
    serde::Writer w;
    net::Hello h;
    h.node = cfg_.id;
    h.n = cfg_.n;
    h.encode(w);
    io_queue_ctrl(c, net::FrameKind::kHello, w.data());
    c.hello_sent = true;
  }

  // Control bytes always flush ahead of data (a hello must precede any
  // frame; pings must not starve behind a deep data backlog).
  while (c.ctrl_off < c.ctrl.size()) {
    const ssize_t sent = ::send(c.fd.get(), c.ctrl.data() + c.ctrl_off,
                                c.ctrl.size() - c.ctrl_off, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      c.dead = true;
      return;
    }
    stats_.bytes_tx.fetch_add(static_cast<std::uint64_t>(sent),
                              std::memory_order_relaxed);
    c.ctrl_off += static_cast<std::size_t>(sent);
  }
  if (c.ctrl_off == c.ctrl.size() && !c.ctrl.empty()) {
    c.ctrl.clear();
    c.ctrl_off = 0;
  }

  if (!c.established() || c.peer == kNoPeer) return;
  PeerState& p = *peers_[c.peer];
  for (;;) {
    if (!c.cur_valid) {
      std::lock_guard<std::mutex> lk(out_mx_);
      if (p.queue.empty()) return;
      c.cur = std::move(p.queue.front());
      p.queue.pop_front();
      c.cur_valid = true;
      c.cur_off = 0;
      c.cur_header_len = net::put_data_header(c.cur_header, c.cur.route(),
                                              static_cast<std::uint32_t>(c.cur.size()));
    }
    // Gather-write the header remainder + payload remainder straight from
    // the shared payload bytes: zero copies on the tx path. sendmsg, not
    // writev: only a socket send can pass MSG_NOSIGNAL, and a peer that
    // closed first must surface as EPIPE here, not kill the process.
    const auto payload = c.cur.bytes();
    iovec iov[2];
    int iovcnt = 0;
    if (c.cur_off < c.cur_header_len) {
      iov[iovcnt].iov_base = c.cur_header + c.cur_off;
      iov[iovcnt].iov_len = c.cur_header_len - c.cur_off;
      ++iovcnt;
    }
    const std::size_t payload_off =
        c.cur_off > c.cur_header_len ? c.cur_off - c.cur_header_len : 0;
    if (payload_off < payload.size()) {
      iov[iovcnt].iov_base =
          const_cast<std::uint8_t*>(payload.data()) + payload_off;
      iov[iovcnt].iov_len = payload.size() - payload_off;
      ++iovcnt;
    }
    ssize_t sent;
    if (iovcnt == 0) {
      sent = 0;  // zero-length payload, header already out
    } else {
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(iovcnt);
      sent = ::sendmsg(c.fd.get(), &msg, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        c.dead = true;
        return;
      }
      stats_.bytes_tx.fetch_add(static_cast<std::uint64_t>(sent),
                                std::memory_order_relaxed);
    }
    c.cur_off += static_cast<std::size_t>(sent);
    if (c.cur_off >= c.cur_header_len + payload.size()) {
      stats_.frames_tx.fetch_add(1, std::memory_order_relaxed);
      c.cur = Payload();
      c.cur_valid = false;
    }
  }
}

void SocketHost::io_drop_conn(Conn& c, bool established_loss) {
  if (c.dead && c.fd.get() < 0) return;  // already dropped
  c.dead = true;
  if (established_loss) stats_.conns_dropped.fetch_add(1, std::memory_order_relaxed);
  c.decoder.finish();
  const auto& dc = c.decoder.counters();
  if (dc.dropped_truncated > 0) {
    stats_.rx_truncated.fetch_add(dc.dropped_truncated, std::memory_order_relaxed);
  }
  if (c.peer != kNoPeer) {
    PeerState& p = *peers_[c.peer];
    if (p.conn == &c) {
      p.conn = nullptr;
      if (c.dialed) {
        ++p.attempts;
        p.next_dial = now() + jittered_backoff(p.attempts, cfg_.backoff_base,
                                               cfg_.backoff_cap, cfg_.backoff_jitter,
                                               io_rng_);
      }
    }
    if (c.cur_valid) {
      // The peer cannot have decoded a frame we never finished writing:
      // requeue at the front so the head-of-line message survives the
      // reconnect without duplication.
      std::lock_guard<std::mutex> lk(out_mx_);
      if (p.queue.size() < cfg_.max_queue) {
        p.queue.push_front(std::move(c.cur));
      } else {
        ++p.dropped;
        stats_.queue_dropped.fetch_add(1, std::memory_order_relaxed);
      }
      c.cur = Payload();
      c.cur_valid = false;
    }
  }
  c.fd.reset();
}

void SocketHost::io_check_liveness(Time now_us) {
  for (auto& cp : conns_) {
    Conn& c = *cp;
    if (c.dead || !c.established()) continue;
    const Time silent = now_us - c.last_rx;
    if (silent >= cfg_.drop_after) {
      // Half-open: TCP would keep this ESTABLISHED forever.
      io_drop_conn(c, /*established_loss=*/true);
    } else if (silent >= cfg_.ping_after && !c.ping_outstanding) {
      io_queue_ctrl(c, net::FrameKind::kPing);
      c.ping_outstanding = true;
    }
  }
}

Time SocketHost::io_next_deadline(Time now_us) const {
  Time next = now_us + 100 * kMillisecond;  // liveness sweep floor
  for (NodeId peer = 0; peer < cfg_.id; ++peer) {
    const PeerState& p = *peers_[peer];
    if (p.conn == nullptr) next = std::min(next, p.next_dial);
  }
  for (const auto& cp : conns_) {
    if (cp->dead || !cp->established()) continue;
    next = std::min(next, cp->last_rx + (cp->ping_outstanding ? cfg_.drop_after
                                                              : cfg_.ping_after));
  }
  return std::max(next, now_us + 1 * kMillisecond);
}

void SocketHost::run_io() {
  std::vector<pollfd> pfds;
  std::vector<Conn*> pfd_conns;

  while (!stop_.load(std::memory_order_relaxed)) {
    // Redial lower peers whose backoff has expired (higher id dials lower).
    const Time t = now();
    for (NodeId peer = 0; peer < cfg_.id; ++peer) {
      PeerState& p = *peers_[peer];
      if (p.conn == nullptr && t >= p.next_dial) io_dial(peer);
    }

    pfds.clear();
    pfd_conns.clear();
    pfds.push_back({wake_rd_.get(), POLLIN, 0});
    pfds.push_back({listener_.get(), POLLIN, 0});
    for (auto& cp : conns_) {
      if (cp->dead) continue;
      short ev = cp->connecting ? 0 : POLLIN;
      if (io_wants_write(*cp)) ev |= POLLOUT;
      pfds.push_back({cp->fd.get(), ev, 0});
      pfd_conns.push_back(cp.get());
    }

    const Time deadline = io_next_deadline(t);
    const int timeout_ms =
        static_cast<int>(std::min<Time>((deadline - t) / 1000 + 1, 1000));
    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
    if (rc < 0 && errno != EINTR) break;  // unrecoverable poll failure

    if (rc > 0) {
      if ((pfds[0].revents & POLLIN) != 0) {
        std::uint8_t drain[256];
        while (::read(wake_rd_.get(), drain, sizeof drain) > 0) {
        }
      }
      if ((pfds[1].revents & POLLIN) != 0) io_accept_pending();
      for (std::size_t i = 0; i < pfd_conns.size(); ++i) {
        Conn& c = *pfd_conns[i];
        const short re = pfds[i + 2].revents;
        if (c.dead) continue;
        if ((re & (POLLERR | POLLHUP | POLLNVAL)) != 0 && !c.connecting) {
          // Let the read path consume any final bytes + observe EOF.
          io_handle_readable(c);
          if (!c.dead) io_drop_conn(c, c.established());
          continue;
        }
        if ((re & POLLIN) != 0) io_handle_readable(c);
        if (!c.dead && (re & (POLLOUT | POLLERR | POLLHUP)) != 0) {
          io_handle_writable(c);
        }
      }
    }

    io_check_liveness(now());

    // Sweep: finalize drops (updates backoff + requeue) and erase.
    for (auto& cp : conns_) {
      if (cp->dead) io_drop_conn(*cp, cp->established());
    }
    std::erase_if(conns_, [](const auto& cp) { return cp->dead; });

    // A newly-established conn may have a backlog but no poll event coming
    // (queue filled while we were handshaking): opportunistically flush.
    for (auto& cp : conns_) {
      if (!cp->dead && cp->established() && io_wants_write(*cp)) {
        io_handle_writable(*cp);
        if (cp->dead) io_drop_conn(*cp, true);
      }
    }
    std::erase_if(conns_, [](const auto& cp) { return cp->dead; });
  }

  // Shutdown: close everything; peers observe EOF and count a drop.
  for (auto& cp : conns_) {
    cp->dead = true;
    cp->fd.reset();
  }
  conns_.clear();
}

}  // namespace tbft::runtime
