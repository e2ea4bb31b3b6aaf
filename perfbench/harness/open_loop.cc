#include "open_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "serve/wire.h"
#include "util/status.h"

namespace perfbench {
namespace {

namespace wire = yver::serve::wire;

int ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

void SleepUntil(int64_t abs_ns) {
  timespec ts;
  ts.tv_sec = abs_ns / 1000000000;
  ts.tv_nsec = abs_ns % 1000000000;
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

struct PendingAppend {
  uint32_t append = 0;      // index into LoadPlan::appends
  uint64_t record_idx = 0;  // the corpus index its ack assigned
};

// Acked appends whose index has not yet answered OK, oldest first. The
// receiver adds on ack and retires on the first OK probe; the sender
// probes the front.
struct Visibility {
  std::mutex mu;
  std::deque<PendingAppend> pending;
};

struct Conn {
  int fd = -1;
  std::vector<uint32_t> fifo;     // op indices in send order
  std::atomic<size_t> pushed{0};  // written by the sender only
  std::atomic<size_t> popped{0};  // written by the receiver only
  std::string in;                 // receiver only
  bool dead = false;              // receiver only
};

}  // namespace

LoadRun RunOpenLoop(uint16_t port, const LoadPlan& plan, Tracer* tracer,
                    const std::function<void()>& sample) {
  LoadRun run;
  run.results.assign(plan.ops.size(), OpResult{});
  run.visible_ns.assign(plan.appends.size(), 0);
  const bool tracing = tracer != nullptr && tracer->enabled();
  std::vector<uint64_t> root_span(tracing ? plan.ops.size() : 0, 0);

  std::vector<std::unique_ptr<Conn>> conns;
  for (size_t c = 0; c < plan.connections; ++c) {
    auto conn = std::make_unique<Conn>();
    conn->fd = ConnectLoopback(port);
    if (conn->fd < 0) {
      for (auto& open : conns) ::close(open->fd);
      return run;
    }
    conn->fifo.resize(plan.ops.size());
    conns.push_back(std::move(conn));
  }
  run.connected = true;

  Visibility visibility;
  std::atomic<bool> sender_done{false};
  const int64_t last_due = plan.ops.empty() ? 0 : plan.ops.back().due_ns;
  run.start_ns = NowNs() + 20'000'000;  // let both threads get going

  std::thread sender([&] {
    // Default timer slack (50 us) would make every sleep that late.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    std::string frame;
    for (size_t i = 0; i < plan.ops.size(); ++i) {
      const Op& op = plan.ops[i];
      Conn& conn = *conns[op.conn];
      if (plan.window > 0) {
        while (conn.pushed.load(std::memory_order_relaxed) -
                   conn.popped.load(std::memory_order_acquire) >=
               plan.window) {
          SleepUntil(NowNs() + 20'000);  // leave the cores to the server
        }
      } else {
        const int64_t due = run.start_ns + op.due_ns;
        if (NowNs() < due) SleepUntil(due);
      }
      OpResult& result = run.results[i];
      yver::serve::Query probe;
      if (op.kind == OpKind::kProbeSlot) {
        std::lock_guard<std::mutex> lock(visibility.mu);
        if (visibility.pending.empty()) continue;  // nothing to probe
        result.value = visibility.pending.front().append;
        probe.record = static_cast<yver::data::RecordIdx>(
            visibility.pending.front().record_idx);
        probe.k = 1;
      }
      const uint64_t request = i + 1;
      if (tracing) root_span[i] = tracer->NewId();
      frame.clear();
      {
        ScopedSpan span(tracer, "serve.net.encode",
                        tracing ? root_span[i] : 0, request);
        if (op.kind == OpKind::kAppend) {
          wire::EncodeAppend(plan.appends[op.payload], &frame);
        } else {
          wire::EncodeQuery(
              op.kind == OpKind::kQuery ? plan.queries[op.payload] : probe,
              0.0, &frame);
        }
      }
      result.sent_ns = NowNs();
      // Publish the FIFO slot before the bytes can be answered.
      result.status = kNoAnswer;
      size_t n = conn.pushed.load(std::memory_order_relaxed);
      conn.fifo[n] = static_cast<uint32_t>(i);
      conn.pushed.store(n + 1, std::memory_order_release);
      // A failed write leaves the op unanswered, so it counts as failed.
      SendAll(conn.fd, frame);
    }
    sender_done.store(true, std::memory_order_release);
  });

  std::thread receiver([&] {
    std::vector<pollfd> fds(conns.size());
    char buf[1 << 16];
    int64_t next_sample = NowNs();
    for (;;) {
      bool all_done = sender_done.load(std::memory_order_acquire);
      if (all_done) {
        for (auto& conn : conns) {
          if (!conn->dead &&
              conn->popped.load(std::memory_order_relaxed) <
                  conn->pushed.load(std::memory_order_acquire)) {
            all_done = false;
          }
        }
        if (all_done) break;
      }
      const int64_t now = NowNs();
      if (now > run.start_ns + last_due +
                    static_cast<int64_t>(plan.drain_timeout_ms * 1e6) &&
          sender_done.load(std::memory_order_acquire)) {
        break;  // whatever is still missing counts as failed
      }
      if (sample && now >= next_sample) {
        sample();
        next_sample = now + 5'000'000;
      }
      for (size_t c = 0; c < conns.size(); ++c) {
        fds[c].fd = conns[c]->dead ? -1 : conns[c]->fd;
        fds[c].events = POLLIN;
        fds[c].revents = 0;
      }
      int ready = ::poll(fds.data(), fds.size(), 2);
      if (ready <= 0) continue;
      for (size_t c = 0; c < conns.size(); ++c) {
        if (fds[c].revents == 0) continue;
        Conn& conn = *conns[c];
        ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (got <= 0) {
          if (got < 0 && (errno == EINTR || errno == EAGAIN)) continue;
          conn.dead = true;
          continue;
        }
        const int64_t done = NowNs();
        conn.in.append(buf, static_cast<size_t>(got));
        size_t off = 0;
        for (;;) {
          wire::Frame frame;
          auto consumed = wire::ExtractFrame(
              std::string_view(conn.in).substr(off), &frame);
          if (!consumed.ok()) {
            conn.dead = true;
            break;
          }
          if (*consumed == 0) break;
          size_t fifo_len = conn.pushed.load(std::memory_order_acquire);
          size_t popped = conn.popped.load(std::memory_order_relaxed);
          if (popped >= fifo_len) {  // an answer nobody asked for
            conn.dead = true;
            break;
          }
          const uint32_t i = conn.fifo[popped];
          conn.popped.store(popped + 1, std::memory_order_release);
          const Op& op = plan.ops[i];
          OpResult& result = run.results[i];
          result.done_ns = done;
          result.frame_hash = Fnv1a(conn.in.data() + off, *consumed);
          off += *consumed;
          const uint64_t request = i + 1;
          ScopedSpan span(tracer, "serve.net.decode",
                          tracing ? root_span[i] : 0, request);
          if (op.kind == OpKind::kAppend) {
            auto ack = wire::DecodeAppendAck(frame);
            if (ack.ok()) {
              result.status = 0;
              result.value = ack->record_idx;
              std::lock_guard<std::mutex> lock(visibility.mu);
              visibility.pending.push_back(
                  PendingAppend{op.payload, ack->record_idx});
            } else {
              auto answer = wire::DecodeResult(frame);
              result.status = static_cast<int32_t>(
                  answer.ok() ? yver::util::StatusCode::kInternal
                              : answer.status().code());
            }
            continue;
          }
          auto answer = wire::DecodeResult(frame);
          result.status =
              static_cast<int32_t>(answer.ok() ? yver::util::StatusCode::kOk
                                               : answer.status().code());
          if (op.kind == OpKind::kProbeSlot && answer.ok()) {
            const uint32_t target = static_cast<uint32_t>(result.value);
            if (run.visible_ns[target] == 0) run.visible_ns[target] = done;
            std::lock_guard<std::mutex> lock(visibility.mu);
            while (!visibility.pending.empty() &&
                   run.visible_ns[visibility.pending.front().append] != 0) {
              visibility.pending.pop_front();
            }
          }
        }
        conn.in.erase(0, off);
      }
    }
  });

  sender.join();
  receiver.join();
  for (auto& conn : conns) ::close(conn->fd);
  if (tracing) {
    for (size_t i = 0; i < plan.ops.size(); ++i) {
      const OpResult& r = run.results[i];
      if (r.sent_ns == 0 || r.done_ns == 0) continue;
      Span span;
      span.name = "request";
      span.start_ns = run.start_ns + plan.ops[i].due_ns;
      span.end_ns = r.done_ns;
      span.id = root_span[i];
      span.request = i + 1;
      tracer->Record(span);
    }
  }
  return run;
}

}  // namespace perfbench
