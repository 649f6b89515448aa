#include "campaignd/coordinator.hpp"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <map>
#include <thread>
#include <utility>

#include "campaignd/checkpoint.hpp"
#include "campaignd/net.hpp"
#include "campaignd/snapshots.hpp"
#include "campaignd/wire.hpp"
#include "campaignd/workload.hpp"
#include "sim/error.hpp"

namespace mts::campaignd {

namespace {

using Clock = std::chrono::steady_clock;

/// SIGTERM/SIGINT land here; every Coordinator checks it each loop turn.
volatile std::sig_atomic_t g_signal_shutdown = 0;
void on_shutdown_signal(int) { g_signal_shutdown = 1; }

/// A work unit: the (remaining) run indices of one contiguous shard of the
/// matrix, plus its retry ledger. As run_done records arrive, completed
/// indices are struck off, so a re-dispatch after a crash ships only the
/// remainder -- completed work is never replayed.
struct Unit {
  std::int64_t id = 0;
  std::vector<std::size_t> indices;
  unsigned failures = 0;          ///< dispatches that ended in worker loss
  std::string last_signature;     ///< previous failure's signature
  Clock::time_point not_before{};  ///< backoff gate for the next dispatch
  json::Value chaos = json::Value::array();  ///< directives riding along
};

/// One worker slot: a process + its connection + its liveness clocks.
struct Slot {
  int index = 0;
  pid_t pid = -1;
  bool alive = false;
  Fd conn;
  FrameDecoder dec;
  bool connected = false;  ///< hello received, job sent
  std::int64_t unit = -1;  ///< dispatched unit id; -1 idle
  std::uint64_t runs_done = 0;      ///< monotone, from heartbeats
  Clock::time_point last_beat{};      ///< last heartbeat (or spawn)
  Clock::time_point last_progress{};  ///< last runs-done increase
  unsigned respawns = 0;
  bool retired = false;
};

/// An accepted connection that has not yet identified itself (hello).
struct PendingConn {
  Fd conn;
  FrameDecoder dec;
};

/// The job's run book. A run_filter index outside the matrix is a
/// CoordinatorError on both paths.
sim::RunBook make_book(const JobSpec& job) {
  try {
    return sim::RunBook(job.configs, job.reps, job.opt, job.run_filter);
  } catch (const ConfigError& e) {
    throw CoordinatorError(e.what());
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// The sequential in-process oracle
// ---------------------------------------------------------------------------

void run_local(const JobSpec& job, Coordinator::Outcome& out) {
  const auto t0 = Clock::now();
  sim::RunBook book = make_book(job);
  std::unique_ptr<Workload> wl = make_workload(job.workload, job.params);
  const sim::Campaign::Body body = wl->body();
  sim::RunShard shard(job.opt);

  for (std::size_t index : book.runs()) {
    if (!book.admit(index)) continue;
    sim::run_step(shard, job.opt, job.configs, job.reps, index, 0, body,
                  book.slot(index));
    book.file(index);
  }
  book.fold(out);
  out.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

struct Coordinator::Impl {
  Coordinator& self;
  const JobSpec& job;
  const CoordinatorOptions& opt;

  Listener listener;
  std::vector<Slot> slots;
  std::vector<PendingConn> pendings;
  std::map<std::int64_t, Unit> units;  ///< incomplete units
  std::deque<std::int64_t> queue;      ///< undispatched unit ids
  sim::RunBook book;
  std::string digest;
  /// Every filed run's record, staged as it is filed (the decoded copy
  /// lives in the book).
  CheckpointJournal journal;
  std::vector<std::int64_t> quarantined_units;

  Impl(Coordinator& c, const JobSpec& j, const CoordinatorOptions& o)
      : self(c),
        job(j),
        opt(o),
        book(make_book(j)),
        digest(job_digest(j.configs, j.reps, j.opt, j.workload,
                          j.params.dump(), book.runs())),
        journal(o.checkpoint_path, j.configs, j.reps, digest) {}

  void emit(const std::string& kind, int worker = -1, long pid = -1,
            std::int64_t unit = -1, const std::string& detail = "") {
    if (opt.on_event) opt.on_event(Event{kind, worker, pid, unit, detail});
  }

  bool want_shutdown() const {
    return self.shutdown_.load() || g_signal_shutdown != 0;
  }

  // -- setup ----------------------------------------------------------------

  void setup() {
    if (opt.resume && !opt.checkpoint_path.empty() &&
        ::access(opt.checkpoint_path.c_str(), F_OK) == 0) {
      journal.resume([this](json::Value& rec) {
        const std::size_t idx = record_run_index(rec);
        if (!book.listed(idx) || book.filed(idx)) {
          throw CheckpointError(opt.checkpoint_path + ": run " +
                                std::to_string(idx) +
                                " is not an outstanding run of this job");
        }
        // Filing replays the failure accounting, so config quarantine
        // resumes where it left off (same gate decisions as the first
        // life).
        file_record(idx, rec);
      });
    }

    std::vector<std::size_t> remaining;
    for (std::size_t t : book.runs()) {
      if (!book.filed(t)) remaining.push_back(t);
    }
    if (remaining.empty()) return;  // resume of a finished campaign

    const unsigned workers = opt.workers == 0 ? 1 : opt.workers;
    std::size_t unit_size = opt.unit_size;
    if (unit_size == 0) {
      unit_size = (remaining.size() + 4 * workers - 1) / (4 * workers);
      if (unit_size == 0) unit_size = 1;
    }
    std::int64_t next_id = 0;
    for (std::size_t at = 0; at < remaining.size(); at += unit_size) {
      Unit u;
      u.id = next_id++;
      const std::size_t end = std::min(at + unit_size, remaining.size());
      u.indices.assign(remaining.begin() + static_cast<std::ptrdiff_t>(at),
                       remaining.begin() + static_cast<std::ptrdiff_t>(end));
      attach_chaos(u);
      queue.push_back(u.id);
      units.emplace(u.id, std::move(u));
    }

    listener = listen_local();
    const unsigned fleet = static_cast<unsigned>(
        std::min<std::size_t>(workers, units.size()));
    slots.resize(fleet);
    for (unsigned i = 0; i < fleet; ++i) {
      slots[i].index = static_cast<int>(i);
      spawn(slots[i]);
    }
  }

  void attach_chaos(Unit& u) {
    if (!opt.chaos.is_array()) return;
    for (const json::Value& d : opt.chaos.as_array()) {
      const std::size_t at = d.at("at_run").as_size();
      if (std::find(u.indices.begin(), u.indices.end(), at) !=
          u.indices.end()) {
        u.chaos.push(d);
      }
    }
  }

  /// Decodes a snapshot record (wire payload or journal frame) into its
  /// book slot and files it. A record that does not decode is fatal: a
  /// half-restored slot must never fold.
  void file_record(std::size_t idx, const json::Value& rec) {
    try {
      run_record_from_json(rec, book.slot(idx));
    } catch (const json::ProtocolError& e) {
      throw CoordinatorError("malformed record for run " +
                             std::to_string(idx) + ": " + e.what());
    }
    book.file(idx);
  }

  // -- process management ---------------------------------------------------

  void spawn(Slot& s) {
    std::vector<std::string> argv_s = opt.worker_cmd;
    if (argv_s.empty()) {
      argv_s = {"/proc/self/exe", "worker", "--port", "{port}"};
    }
    const std::string port = std::to_string(listener.port);
    for (std::string& a : argv_s) {
      const std::size_t at = a.find("{port}");
      if (at != std::string::npos) a.replace(at, 6, port);
    }
    std::vector<char*> argv;
    argv.reserve(argv_s.size() + 1);
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
      throw CoordinatorError(std::string("fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    s.pid = pid;
    s.alive = true;
    s.connected = false;
    s.unit = -1;
    s.runs_done = 0;
    s.last_beat = s.last_progress = Clock::now();
    s.conn.reset();
    s.dec = FrameDecoder();
    emit("worker_spawned", s.index, static_cast<long>(pid));
  }

  /// Reaps an exiting worker with a short grace period, translating its
  /// exit status into a failure signature. "disconnect" when the status is
  /// not available in time (the slot stays alive for kill_and_reap).
  std::string reap_signature(Slot& s) {
    int status = 0;
    for (int i = 0; i < 50; ++i) {
      const pid_t r = ::waitpid(s.pid, &status, WNOHANG);
      if (r == s.pid) {
        s.alive = false;
        if (WIFEXITED(status)) {
          return "exit:" + std::to_string(WEXITSTATUS(status));
        }
        if (WIFSIGNALED(status)) {
          return "signal:" + std::to_string(WTERMSIG(status));
        }
        return "disconnect";
      }
      if (r < 0) {
        s.alive = false;
        return "disconnect";
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return "disconnect";
  }

  void kill_and_reap(Slot& s) {
    if (!s.alive || s.pid <= 0) return;
    ::kill(s.pid, SIGKILL);
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(s.pid, &status, 0);
    } while (r < 0 && errno == EINTR);
    s.alive = false;
  }

  /// The single worker-failure path: kill/reap, requeue its unit with the
  /// failure signature, respawn or retire the slot.
  void fail_slot(Slot& s, const std::string& base_signature) {
    const std::int64_t uid = s.unit;
    std::string sig = base_signature;
    if (uid >= 0) {
      const auto it = units.find(uid);
      if (it != units.end() && !it->second.indices.empty()) {
        // The first incomplete run pins WHERE the unit keeps dying: the
        // identical-signature-twice quarantine test keys on it.
        sig += "@run" + std::to_string(it->second.indices.front());
      }
    }
    kill_and_reap(s);
    s.conn.reset();
    s.dec = FrameDecoder();
    s.connected = false;
    s.unit = -1;
    emit("worker_lost", s.index, static_cast<long>(s.pid), uid, sig);
    if (uid >= 0) requeue(uid, sig);
    if (s.respawns >= opt.respawn_limit) {
      s.retired = true;
      emit("degraded", s.index, static_cast<long>(s.pid), -1,
           "worker slot retired after " + std::to_string(s.respawns) +
               " respawns");
    } else {
      ++s.respawns;
      spawn(s);
    }
  }

  bool all_retired() const {
    for (const Slot& s : slots) {
      if (!s.retired) return false;
    }
    return !slots.empty();
  }

  // -- unit lifecycle -------------------------------------------------------

  void requeue(std::int64_t uid, const std::string& signature) {
    const auto it = units.find(uid);
    if (it == units.end()) return;
    Unit& u = it->second;
    if (u.indices.empty()) {
      // Every run's record arrived before the worker died; the unit is
      // effectively complete.
      units.erase(it);
      return;
    }
    ++u.failures;
    const bool identical =
        u.failures > 1 && !u.last_signature.empty() &&
        signature == u.last_signature;
    if (identical || u.failures > opt.unit_retries) {
      quarantine_unit(u, signature,
                      identical ? "failed identically twice"
                                : "retry budget exhausted");
      units.erase(it);
      return;
    }
    u.last_signature = signature;
    unsigned shift = u.failures - 1;
    if (shift > 20) shift = 20;
    const std::int64_t backoff =
        std::min<std::int64_t>(static_cast<std::int64_t>(opt.backoff_initial_ms)
                                   << shift,
                               opt.backoff_max_ms);
    u.not_before = Clock::now() + std::chrono::milliseconds(backoff);
    queue.push_back(uid);
    emit("unit_requeued", -1, -1, uid,
         signature + " (attempt " + std::to_string(u.failures + 1) +
             ", backoff " + std::to_string(backoff) + "ms)");
  }

  /// Records the unit's remaining runs as failed ("quarantined") -- the
  /// same surrender the engine performs per config, applied per unit when
  /// workers keep dying on it.
  void quarantine_unit(Unit& u, const std::string& signature,
                       const std::string& why) {
    for (std::size_t index : u.indices) {
      if (book.filed(index)) continue;
      // Never executed (attempts == 0): the book does not count it.
      sim::RunResult& r =
          book.skip(index, "unit " + std::to_string(u.id) + " quarantined (" +
                               why + "): " + signature);
      r.error_type = "campaignd::WorkerFailure";
      if (!job.opt.repro_dir.empty()) {
        sim::write_repro_bundle(
            job.opt.repro_dir, job.opt.seed, job.configs, job.reps,
            sim::campaign_run_spec(job.opt.seed, job.reps, index), r);
      }
      book.file(index);
      journal.add(make_run_record(book.slot(index)));
    }
    quarantined_units.push_back(u.id);
    emit("unit_quarantined", -1, -1, u.id, why + ": " + signature);
    maybe_checkpoint();
  }

  /// Passes a unit's runs through the book's config-quarantine gate
  /// before dispatch: a gated run leaves the unit, its skip record filed.
  void strip_quarantined_configs(Unit& u) {
    if (job.opt.quarantine_after == 0) return;
    std::erase_if(u.indices, [this](std::size_t index) {
      if (book.filed(index)) return true;
      if (book.admit(index)) return false;
      journal.add(make_run_record(book.slot(index)));
      return true;
    });
  }

  void dispatch_ready() {
    const auto now = Clock::now();
    for (Slot& s : slots) {
      if (s.retired || !s.connected || s.unit >= 0) continue;
      // Earliest-created unit whose backoff has elapsed.
      std::int64_t chosen = -1;
      for (auto it = queue.begin(); it != queue.end();) {
        const auto uit = units.find(*it);
        if (uit == units.end()) {
          it = queue.erase(it);  // finished meanwhile
        } else if (uit->second.not_before <= now) {
          chosen = *it;
          queue.erase(it);
          break;
        } else {
          ++it;
        }
      }
      if (chosen < 0) return;
      Unit& u = units.at(chosen);
      strip_quarantined_configs(u);
      if (u.indices.empty()) {
        units.erase(chosen);
        continue;
      }
      json::Value m = json::Value::object();
      m.set("type", json::Value("unit"));
      m.set("unit", json::Value::number_i64(u.id));
      json::Value idx = json::Value::array();
      for (std::size_t i : u.indices) idx.push(json::Value::number_size(i));
      m.set("indices", std::move(idx));
      if (u.chaos.size() > 0) m.set("chaos", u.chaos);
      s.unit = u.id;
      s.last_progress = Clock::now();
      try {
        send_frame(s, m);
      } catch (const NetError&) {
        fail_slot(s, "disconnect");
        continue;
      }
      emit("unit_dispatched", s.index, static_cast<long>(s.pid), u.id,
           std::to_string(u.indices.size()) + " runs");
    }
  }

  // -- wire -----------------------------------------------------------------

  void send_frame(Slot& s, const json::Value& m) {
    send_all(s.conn, encode_frame(m.dump()));
  }

  json::Value job_message() const {
    json::Value m = json::Value::object();
    m.set("type", json::Value("job"));
    m.set("workload", json::Value(job.workload));
    m.set("params", job.params);
    m.set("configs", json::Value::number_size(job.configs));
    m.set("reps", json::Value::number_size(job.reps));
    m.set("options", options_to_json(job.opt));
    m.set("heartbeat_interval_ms",
          json::Value::number_i64(opt.heartbeat_interval_ms));
    return m;
  }

  /// Handles one decoded message from a connected slot. Returns false when
  /// the slot failed and must not be read further this turn.
  bool handle_message(Slot& s, const json::Value& m) {
    const std::string type = m.at("type").as_string();
    const auto now = Clock::now();
    if (type == "heartbeat") {
      s.last_beat = now;
      const std::uint64_t done = m.get_u64("runs_done", 0);
      if (done > s.runs_done) {
        s.runs_done = done;
        s.last_progress = now;
      }
      return true;
    }
    if (type == "run_done") {
      s.last_beat = s.last_progress = now;
      handle_record(s, m);
      return true;
    }
    if (type == "unit_done") {
      s.last_beat = s.last_progress = now;
      const std::int64_t uid = m.at("unit").as_i64();
      units.erase(uid);
      if (s.unit == uid) s.unit = -1;
      return true;
    }
    if (type == "error") {
      fail_slot(s, "error:" + m.get_string("message", "unknown"));
      return false;
    }
    fail_slot(s, "protocol:" + type);
    return false;
  }

  void handle_record(Slot& s, const json::Value& m) {
    const json::Value& rec = m.at("record");
    const std::size_t idx = record_run_index(rec);
    const std::int64_t uid = m.at("unit").as_i64();
    const auto uit = units.find(uid);
    if (uit != units.end()) {
      auto& ind = uit->second.indices;
      ind.erase(std::remove(ind.begin(), ind.end(), idx), ind.end());
    }
    if (!book.listed(idx)) {
      throw json::ProtocolError("record for unlisted run " +
                                std::to_string(idx));
    }
    if (!book.filed(idx)) {
      file_record(idx, rec);
      journal.add(rec);
      emit("run_done", s.index, static_cast<long>(s.pid), uid,
           "run " + std::to_string(idx));
      maybe_checkpoint();
    }
  }

  /// Drains one readable slot connection. Returns false when the slot
  /// failed (EOF, framing, protocol) and was recycled.
  bool read_slot(Slot& s) {
    char buf[65536];
    std::size_t n = 0;
    try {
      n = recv_some(s.conn, buf, sizeof buf);
    } catch (const NetError&) {
      fail_slot(s, reap_signature(s));
      return false;
    }
    if (n == 0) {
      // EOF: reap first so the signature carries the real exit status
      // (signal:9 for a chaos kill, exit:3 for a dropped connection, ...).
      fail_slot(s, reap_signature(s));
      return false;
    }
    std::vector<std::string> payloads;
    try {
      s.dec.feed(buf, n, payloads);
    } catch (const FramingError&) {
      fail_slot(s, "framing-error");
      return false;
    }
    for (const std::string& p : payloads) {
      json::Value m;
      try {
        m = json::parse(p);
      } catch (const json::ProtocolError&) {
        fail_slot(s, "framing-error");
        return false;
      }
      try {
        if (!handle_message(s, m)) return false;
      } catch (const json::ProtocolError&) {
        fail_slot(s, "framing-error");
        return false;
      }
    }
    return true;
  }

  void read_pending(std::size_t pi) {
    PendingConn& p = pendings[pi];
    char buf[4096];
    std::size_t n = 0;
    try {
      n = recv_some(p.conn, buf, sizeof buf);
    } catch (const NetError&) {
      n = 0;
    }
    if (n == 0) {
      pendings.erase(pendings.begin() + static_cast<std::ptrdiff_t>(pi));
      return;
    }
    std::vector<std::string> payloads;
    try {
      p.dec.feed(buf, n, payloads);
    } catch (const FramingError&) {
      pendings.erase(pendings.begin() + static_cast<std::ptrdiff_t>(pi));
      return;
    }
    if (payloads.empty()) return;
    long pid = -1;
    try {
      const json::Value m = json::parse(payloads.front());
      if (m.at("type").as_string() == "hello") pid = m.at("pid").as_i64();
    } catch (const json::ProtocolError&) {
    }
    PendingConn conn = std::move(p);
    pendings.erase(pendings.begin() + static_cast<std::ptrdiff_t>(pi));
    if (pid < 0) return;  // not a worker; drop
    for (Slot& s : slots) {
      if (s.alive && !s.connected && static_cast<long>(s.pid) == pid) {
        s.conn = std::move(conn.conn);
        s.dec = std::move(conn.dec);
        s.connected = true;
        s.last_beat = s.last_progress = Clock::now();
        try {
          send_frame(s, job_message());
        } catch (const NetError&) {
          fail_slot(s, "disconnect");
          return;
        }
        emit("worker_connected", s.index, pid);
        return;
      }
    }
    // Unknown pid (e.g. a respawned predecessor's late connect): drop.
  }

  void check_deadlines() {
    const auto now = Clock::now();
    for (Slot& s : slots) {
      if (s.retired || !s.alive) continue;
      if (!s.connected) {
        // Spawn-to-hello grace: generous, covers exec + connect.
        const auto grace = std::chrono::milliseconds(
            std::max(opt.heartbeat_timeout_ms, 10000));
        if (now - s.last_beat > grace) fail_slot(s, "spawn-timeout");
        continue;
      }
      if (now - s.last_beat >
          std::chrono::milliseconds(opt.heartbeat_timeout_ms)) {
        fail_slot(s, "heartbeat-timeout");
        continue;
      }
      if (s.unit >= 0 &&
          now - s.last_progress >
              std::chrono::milliseconds(opt.progress_timeout_ms)) {
        fail_slot(s, "progress-timeout");
      }
    }
  }

  // -- checkpointing --------------------------------------------------------

  void maybe_checkpoint() {
    if (opt.checkpoint_path.empty() || opt.checkpoint_every == 0) return;
    if (journal.staged() < opt.checkpoint_every) return;
    write_now(false);
  }

  void write_now(bool complete) {
    if (opt.checkpoint_path.empty()) return;
    journal.commit(complete);
    emit("checkpoint_written", -1, -1, -1,
         opt.checkpoint_path + " (" +
             std::to_string(book.runs().size() - book.remaining()) +
             " runs)");
  }

  // -- main loop ------------------------------------------------------------

  /// Returns true when interrupted (graceful shutdown), false on
  /// completion. Throws CoordinatorError when the fleet fully retired with
  /// work outstanding (after checkpointing).
  bool loop() {
    while (book.remaining() > 0) {
      if (want_shutdown()) return true;
      if (all_retired()) {
        write_now(false);
        throw CoordinatorError(
            "every worker slot retired with " +
            std::to_string(book.remaining()) +
            " runs outstanding" +
            (opt.checkpoint_path.empty()
                 ? ""
                 : "; checkpoint written to " + opt.checkpoint_path));
      }
      dispatch_ready();
      if (book.remaining() == 0) break;
      poll_once();
      check_deadlines();
    }
    return false;
  }

  void poll_once() {
    std::vector<pollfd> fds;
    std::vector<int> kinds;   // 0 = listener, 1 = pending, 2 = slot
    std::vector<std::size_t> owners;
    fds.push_back({listener.fd.get(), POLLIN, 0});
    kinds.push_back(0);
    owners.push_back(0);
    for (std::size_t i = 0; i < pendings.size(); ++i) {
      fds.push_back({pendings[i].conn.get(), POLLIN, 0});
      kinds.push_back(1);
      owners.push_back(i);
    }
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].connected) continue;
      fds.push_back({slots[i].conn.get(), POLLIN, 0});
      kinds.push_back(2);
      owners.push_back(i);
    }
    const int rc =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 20);
    if (rc <= 0) return;  // timeout or EINTR: deadline checks run next
    // Snapshot the readiness, then handle; handlers mutate pendings/slots,
    // so pending connections are matched by fd, slots by index.
    for (std::size_t f = 0; f < fds.size(); ++f) {
      if ((fds[f].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (kinds[f] == 0) {
        try {
          PendingConn p;
          p.conn = accept_conn(listener.fd);
          pendings.push_back(std::move(p));
        } catch (const NetError&) {
        }
        continue;
      }
      if (kinds[f] == 1) {
        for (std::size_t i = 0; i < pendings.size(); ++i) {
          if (pendings[i].conn.get() == fds[f].fd) {
            read_pending(i);
            break;
          }
        }
        continue;
      }
      Slot& s = slots[owners[f]];
      if (s.connected && s.conn.get() == fds[f].fd) read_slot(s);
    }
  }

  // -- teardown -------------------------------------------------------------

  void teardown(bool interrupted) {
    json::Value bye = json::Value::object();
    bye.set("type", json::Value("shutdown"));
    for (Slot& s : slots) {
      if (s.connected) {
        try {
          send_frame(s, bye);
        } catch (const NetError&) {
        }
      }
      s.conn.reset();
    }
    // Grace: a worker exits on the shutdown message or the EOF from the
    // close above. Stragglers get SIGKILL.
    for (Slot& s : slots) {
      if (!s.alive || s.pid <= 0) continue;
      reap_signature(s);
      kill_and_reap(s);  // no-op once reaped
    }
    write_now(!interrupted && book.remaining() == 0);
    emit("shutdown", -1, -1, -1,
         interrupted ? "interrupted" : "complete");
  }
};

Coordinator::Coordinator(JobSpec job, CoordinatorOptions opt)
    : job_(std::move(job)), opt_(std::move(opt)) {}

Coordinator::~Coordinator() = default;

void Coordinator::install_signal_handlers() {
  struct sigaction sa {};
  sa.sa_handler = on_shutdown_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART: poll() must EINTR out
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

void Coordinator::run(Outcome& out) {
  const auto t0 = Clock::now();
  Impl impl(*this, job_, opt_);
  impl.setup();
  bool interrupted = false;
  try {
    interrupted = impl.loop();
  } catch (...) {
    impl.teardown(true);
    throw;
  }
  impl.teardown(interrupted);

  impl.book.fold(out);
  out.quarantined_units = impl.quarantined_units;
  out.interrupted = interrupted;
  out.workers = static_cast<unsigned>(impl.slots.size());
  out.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace mts::campaignd
