#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>

namespace perfbench {

struct LoadGen::Conn {
  int fd = -1;
  bool text = false;
  bool busy = false;
  bool want_write = false;
  LoadRequest request;  ///< in flight
  std::uint64_t seq = 0;
  Clock::time_point due, sent;
  std::size_t wpos = 0;
  std::vector<std::uint8_t> rbuf;
};

namespace {

bool reply_complete(const std::vector<std::uint8_t>& buf, bool text) {
  if (text) return !buf.empty() && buf.back() == '\n';
  if (buf.size() < 5) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(buf[1 + i]) << (8 * i);
  return buf.size() >= 5u + len;
}

bool error_reply(const std::vector<std::uint8_t>& buf, bool text) {
  if (text) return buf.size() < 3 || std::memcmp(buf.data(), "ERR", 3) == 0;
  return buf.size() < 6 || buf[5] != 0;
}

timespec to_timespec(Clock::duration d) {
  const auto ns = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  return timespec{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
}

std::size_t slot_of(Clock::time_point t, Clock::time_point start, Clock::duration len) {
  return std::min<std::size_t>(kSlots - 1, static_cast<std::size_t>((t - start) / len));
}

}  // namespace

double LoadResult::slot_latency(double q) {
  std::vector<std::vector<double>> per_slot(kSlots);
  for (std::size_t i = 0; i < latency_us.size(); ++i) per_slot[slot[i]].push_back(latency_us[i]);
  std::vector<double> values, steal;
  for (std::size_t i = 0; i < kSlots; ++i) {
    if (per_slot[i].empty()) continue;
    values.push_back(quantile(std::move(per_slot[i]), q));
    steal.push_back(i < slot_steal.size() ? slot_steal[i] : 0.0);
  }
  stolen_slots = 0;
  return quantile(unstolen(values, steal, &stolen_slots), 0.5);
}

double LoadResult::slot_rate() {
  std::vector<double> rates;
  const double slot_seconds = window_seconds / static_cast<double>(kSlots);
  for (const std::uint64_t n : completed_per_slot) rates.push_back(static_cast<double>(n) / slot_seconds);
  stolen_slots = 0;
  return quantile(unstolen(rates, slot_steal, &stolen_slots), 0.5);
}

/// How long after a window closes replies may still arrive before the
/// requests in flight count as unanswered.
constexpr auto kDrain = std::chrono::seconds(2);

/// Records the steal share of each slot of a window as the loop passes the
/// slot boundaries.
class SlotSteal {
 public:
  SlotSteal(Clock::time_point start, Clock::duration slot_len)
      : start_(start), slot_len_(slot_len) {}
  void poll(Clock::time_point now) {
    while (next_ <= kSlots && now >= start_ + slot_len_ * static_cast<std::int64_t>(next_)) {
      ticks_.push_back(steal_ticks());
      ++next_;
    }
  }
  [[nodiscard]] std::vector<double> shares() const {
    const double seconds = std::chrono::duration<double>(slot_len_).count();
    std::vector<double> out;
    for (std::size_t i = 0; i + 1 < ticks_.size(); ++i) {
      out.push_back(steal_share(ticks_[i], ticks_[i + 1], seconds));
    }
    return out;
  }

 private:
  Clock::time_point start_;
  Clock::duration slot_len_;
  std::size_t next_ = 0;
  std::vector<std::uint64_t> ticks_;
};

LoadGen::LoadGen(std::uint16_t port, std::size_t binary_conns, std::size_t text_conns)
    : port_(port), binary_conns_(binary_conns) {
  // Wake within microseconds of a due time, not the default 50 us slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
  for (std::size_t i = 0; i < binary_conns + text_conns; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->text = i >= binary_conns;
    connect_one(*conn);
    conns_.push_back(std::move(conn));
  }
}

LoadGen::~LoadGen() {
  for (auto& conn : conns_) close_one(*conn);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void LoadGen::connect_one(Conn& conn) {
  conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (conn.fd < 0) throw std::runtime_error("socket failed");
  int one = 1;
  ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    ::close(conn.fd);
    conn.fd = -1;
    throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port_) + ": " + why);
  }
  // One blocking PING round trip before the next connection is dialled, so
  // the server has adopted this one and connections spread over its workers
  // in its own round-robin order, the same on every run.
  static constexpr std::uint8_t kBinaryPing[] = {1, 1, 0, 0, 0, 14};
  static constexpr char kTextPing[] = "PING\n";
  const void* ping = conn.text ? static_cast<const void*>(kTextPing) : kBinaryPing;
  const std::size_t ping_size = conn.text ? sizeof kTextPing - 1 : sizeof kBinaryPing;
  std::vector<std::uint8_t> reply;
  bool pinged = ::send(conn.fd, ping, ping_size, MSG_NOSIGNAL) ==
                static_cast<ssize_t>(ping_size);
  while (pinged && !reply_complete(reply, conn.text)) {
    std::uint8_t buf[256];
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n <= 0) pinged = false;
    if (n > 0) reply.insert(reply.end(), buf, buf + n);
  }
  if (!pinged || error_reply(reply, conn.text)) {
    ::close(conn.fd);
    conn.fd = -1;
    throw std::runtime_error("PING on a new load connection failed");
  }
  ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = &conn;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev);
  conn.busy = false;
  conn.want_write = false;
  conn.rbuf.clear();
}

void LoadGen::close_one(Conn& conn) {
  if (conn.fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conn.fd = -1;
}

void LoadGen::send(Conn& conn, LoadRequest request, std::uint64_t seq, Clock::time_point due) {
  conn.busy = true;
  conn.request = std::move(request);
  conn.seq = seq;
  conn.due = due;
  conn.wpos = 0;
  conn.rbuf.clear();
  conn.sent = Clock::now();
  const std::vector<std::uint8_t>& wbuf = conn.request.bytes;
  while (conn.wpos < wbuf.size()) {
    const ssize_t n = ::send(conn.fd, wbuf.data() + conn.wpos, wbuf.size() - conn.wpos,
                             MSG_NOSIGNAL);
    if (n > 0) {
      conn.wpos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT;
      ev.data.ptr = &conn;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
      conn.want_write = true;
    }
    return;  // a hard error surfaces as EPOLLERR/EPOLLHUP on the next wait
  }
}

LoadGen::Pumped LoadGen::pump(Conn& conn, std::uint32_t events) {
  const auto lost = [&]() {
    const bool busy = conn.busy;
    close_one(conn);
    connect_one(conn);
    return busy ? Pumped::kLost : Pumped::kNothing;
  };
  const std::vector<std::uint8_t>& wbuf = conn.request.bytes;
  if ((events & EPOLLOUT) != 0 && conn.want_write) {
    while (conn.wpos < wbuf.size()) {
      const ssize_t n = ::send(conn.fd, wbuf.data() + conn.wpos, wbuf.size() - conn.wpos,
                               MSG_NOSIGNAL);
      if (n > 0) {
        conn.wpos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return lost();
    }
    if (conn.wpos == wbuf.size()) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = &conn;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
      conn.want_write = false;
    }
  }
  if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) == 0) return Pumped::kNothing;
  std::uint8_t buf[65536];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn.rbuf.insert(conn.rbuf.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return lost();  // EOF or error
  }
  return conn.busy && reply_complete(conn.rbuf, conn.text) ? Pumped::kReply : Pumped::kNothing;
}

LoadResult LoadGen::open_loop(const RequestSource& next, const OpenLoopConfig& config) {
  LoadResult result;
  const auto interval = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / config.rate_qps));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const Clock::time_point window_start =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.warmup_seconds));
  const Clock::time_point window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  const Clock::time_point drain_end = window_end + kDrain;
  result.window_seconds = config.seconds;
  const Clock::duration slot_len = (window_end - window_start) / kSlots;
  SlotSteal steal(window_start, slot_len);
  const std::size_t expected =
      static_cast<std::size_t>(config.rate_qps * config.seconds * 1.05) + 16;
  result.latency_us.reserve(expected);
  result.rtt_us.reserve(expected);
  result.lateness_us.reserve(expected);
  result.slot.reserve(expected);

  struct Due {
    std::uint64_t seq;
    Clock::time_point due;
    LoadRequest request;
  };
  std::deque<Due> backlog[2];  // [binary, text]
  std::uint64_t next_seq = 0;
  Clock::time_point next_due = start;
  Clock::time_point last_tick = start;
  epoll_event events[64];

  const auto in_window = [&](Clock::time_point due) {
    return due >= window_start && due < window_end;
  };
  const auto failed = [&](Clock::time_point due) {
    if (!in_window(due)) return;
    result.latency_us.push_back(kFailedLatencyUs);
    result.slot.push_back(static_cast<std::uint8_t>(slot_of(due, window_start, slot_len)));
  };
  const auto dispatch = [&]() {
    for (auto& conn : conns_) {
      if (conn->busy) continue;
      auto& queue = backlog[conn->text ? 1 : 0];
      if (queue.empty()) continue;
      Due d = std::move(queue.front());
      queue.pop_front();
      send(*conn, std::move(d.request), d.seq, d.due);
    }
  };

  while (true) {
    Clock::time_point now = Clock::now();
    steal.poll(now);
    if (now < window_end) {
      while (next_due <= now && next_due < window_end) {
        const bool text = next_seq % conns_.size() >= binary_conns_;
        backlog[text ? 1 : 0].push_back({next_seq, next_due, next(text)});
        if (in_window(next_due)) result.lateness_us.push_back(micros_between(next_due, now));
        ++result.attempted;
        ++next_seq;
        next_due = start + interval * static_cast<std::int64_t>(next_seq);
      }
    } else {
      bool idle = backlog[0].empty() && backlog[1].empty();
      for (const auto& conn : conns_) idle = idle && !conn->busy;
      if (idle || now >= drain_end) break;
    }
    dispatch();
    result.backlog_max = std::max(result.backlog_max, backlog[0].size() + backlog[1].size());

    const Clock::time_point wake =
        now < window_end ? std::min(next_due, window_end)
                         : now + std::chrono::milliseconds(1);
    const timespec timeout = to_timespec(wake - Clock::now());
    const int n = ::epoll_pwait2(epoll_fd_, events, 64, &timeout, nullptr);
    for (int i = 0; i < n; ++i) {
      Conn& conn = *static_cast<Conn*>(events[i].data.ptr);
      const Clock::time_point due = conn.due;
      const Pumped pumped = pump(conn, events[i].events);
      if (pumped == Pumped::kLost) {
        ++result.resets;
        failed(due);
      }
      if (pumped != Pumped::kReply) continue;
      const Clock::time_point done = Clock::now();
      conn.busy = false;
      if (!in_window(due)) {
        if (error_reply(conn.rbuf, conn.text)) ++result.error_replies;
        continue;
      }
      if (config.sample_every != 0 && conn.seq % config.sample_every == 0) {
        result.samples.push_back({conn.request, conn.rbuf});
      }
      if (error_reply(conn.rbuf, conn.text)) {
        ++result.error_replies;
        failed(due);
        continue;
      }
      result.latency_us.push_back(micros_between(due, done));
      result.slot.push_back(static_cast<std::uint8_t>(slot_of(due, window_start, slot_len)));
      result.rtt_us.push_back(micros_between(conn.sent, done));
      ++result.completed;
      result.response_bytes += conn.rbuf.size();
      if (config.keep_timings) {
        result.timings.push_back({conn.seq, conn.request.op, conn.text, due, conn.sent, done});
      }
    }
    dispatch();
    if (config.on_tick && Clock::now() - last_tick >= std::chrono::milliseconds(1)) {
      last_tick = Clock::now();
      config.on_tick();
    }
  }
  for (const auto& conn : conns_) {
    if (conn->busy) {
      ++result.unanswered;
      failed(conn->due);
      close_one(*conn);  // drop the stale reply along with the connection
      connect_one(*conn);
    }
  }
  for (const auto& queue : backlog) {
    for (const Due& d : queue) {
      ++result.unanswered;
      failed(d.due);
    }
  }
  result.slot_steal = steal.shares();
  return result;
}

LoadResult LoadGen::closed_loop(const RequestSource& next, double seconds) {
  LoadResult result;
  result.window_seconds = seconds;
  const auto issue = [&](Conn& conn) {
    ++result.attempted;
    send(conn, next(conn.text), result.attempted, Clock::now());
  };

  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  const Clock::time_point drain_end = end + kDrain;
  const Clock::duration slot_len = (end - start) / kSlots;
  SlotSteal steal(start, slot_len);
  for (auto& conn : conns_) issue(*conn);
  epoll_event events[64];
  while (true) {
    const Clock::time_point now = Clock::now();
    steal.poll(now);
    if (now >= end) {
      bool idle = true;
      for (const auto& conn : conns_) idle = idle && !conn->busy;
      if (idle || now >= drain_end) break;
    }
    const timespec timeout = to_timespec(std::chrono::milliseconds(1));
    const int n = ::epoll_pwait2(epoll_fd_, events, 64, &timeout, nullptr);
    for (int i = 0; i < n; ++i) {
      Conn& conn = *static_cast<Conn*>(events[i].data.ptr);
      const Pumped pumped = pump(conn, events[i].events);
      if (pumped == Pumped::kLost) {
        // The connection was re-dialled idle; keep it working.
        ++result.resets;
        if (Clock::now() < end) issue(conn);
      }
      if (pumped != Pumped::kReply) continue;
      const Clock::time_point done = Clock::now();
      conn.busy = false;
      if (error_reply(conn.rbuf, conn.text)) {
        ++result.error_replies;
      } else if (done <= end) {
        ++result.completed;
        ++result.completed_per_slot[slot_of(done, start, slot_len)];
        result.response_bytes += conn.rbuf.size();
      }
      if (done < end) issue(conn);
    }
  }
  for (const auto& conn : conns_) {
    if (conn->busy) {
      ++result.unanswered;
      close_one(*conn);
      connect_one(*conn);
    }
  }
  result.slot_steal = steal.shares();
  return result;
}

}  // namespace perfbench
