#include "server/qos_server_node.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>

#include "common/flight_recorder.hpp"
#include "common/logging.hpp"
#include "server/cpu_pinning.hpp"
#include "testing/fault_injector.hpp"
#include "wire/codec.hpp"

namespace janus::server {

Result<QosServerConfig> QosServerNode::validate_config(QosServerConfig config) {
  if (config.worker_threads == 0) {
    return Error("QosServerConfig: worker_threads must be >= 1");
  }
  if (config.admission.table_shards == 0) {
    return Error("QosServerConfig: admission.table_shards must be >= 1");
  }
  if (config.threading == core::ThreadingMode::kShardPerWorker &&
      config.admission.table_shards < config.worker_threads) {
    return Error(
        "QosServerConfig: shard-per-worker requires table_shards >= "
        "worker_threads (" +
        std::to_string(config.admission.table_shards) + " shards, " +
        std::to_string(config.worker_threads) +
        " workers) — every worker must own at least one shard under the "
        "shard % workers remap");
  }
  // Batch sizes and queue capacity are clamped, not rejected: an oversized
  // request silently degrades (recvmmsg caps the vector length anyway), and
  // 0 previously hung the loops — both now land in a working range.
  config.recv_batch =
      std::clamp<std::size_t>(config.recv_batch, 1, net::UdpSocket::kMaxBatch);
  config.send_batch =
      std::clamp<std::size_t>(config.send_batch, 1, net::UdpSocket::kMaxBatch);
  config.fifo_capacity =
      std::clamp<std::size_t>(config.fifo_capacity, 64, 1u << 20);
  return config;
}

Result<std::unique_ptr<QosServerNode>> QosServerNode::start(
    const net::SockAddr& listen, db::RuleStore& store,
    QosServerConfig config) {
  auto validated = validate_config(std::move(config));
  if (!validated.ok()) return Error(validated.error().message);
  auto socket = net::UdpSocket::bind(listen);
  if (!socket.ok()) return Error(socket.error().message);
  auto addr = socket.value().local_addr();
  if (!addr.ok()) return Error(addr.error().message);
  return std::unique_ptr<QosServerNode>(
      new QosServerNode(std::move(socket).take(), addr.value(), store,
                        std::move(validated).take()));
}

QosServerNode::QosServerNode(net::UdpSocket socket, net::SockAddr addr,
                             db::RuleStore& store, QosServerConfig config)
    : config_(std::move(config)),
      socket_(std::move(socket)),
      addr_(std::move(addr)),
      store_(store),
      source_(store),
      sink_(store),
      admission_(std::make_unique<core::AdmissionController>(
          SteadyClock::instance(), source_, config_.admission)),
      received_(metrics_.counter("server.received")),
      answered_(metrics_.counter("server.answered")),
      malformed_(metrics_.counter("server.malformed")),
      dropped_(metrics_.counter("server.fifo_dropped")),
      rx_dropped_(metrics_.counter("server.rx_dropped")),
      maint_rejected_(metrics_.counter("server.maint_queue_reject")),
      watchdog_stalls_(metrics_.counter("server.watchdog_stalls")),
      queue_wait_us_(metrics_.histogram("server.queue_wait_us")),
      service_us_(metrics_.histogram("server.service_us")),
      queue_wait_exemplar_(metrics_.exemplar("server.queue_wait_us")),
      service_exemplar_(metrics_.exemplar("server.service_us")),
      recv_batch_size_(metrics_.histogram("server.recv_batch")),
      send_batch_size_(metrics_.histogram("server.send_batch")),
      threading_mode_(metrics_.gauge("server.threading_mode")),
      data_path_gauge_(metrics_.gauge("server.data_path")),
      uring_recv_batches_(metrics_.counter("server.uring_recv_batches")),
      uring_recv_datagrams_(metrics_.counter("server.uring_recv_datagrams")),
      uring_send_batches_(metrics_.counter("server.uring_send_batches")),
      uring_send_datagrams_(metrics_.counter("server.uring_send_datagrams")),
      uring_rearms_(metrics_.counter("server.uring_rearms")),
      uring_buf_recycles_(metrics_.counter("server.uring_buf_recycles")),
      uring_send_errors_(metrics_.counter("server.uring_send_errors")),
      stale_nacks_(metrics_.counter("server.stale_epoch_nacks")),
      cluster_deferred_(metrics_.counter("server.cluster_deferred")),
      migrated_in_(metrics_.counter("server.migrated_in")),
      migrated_out_(metrics_.counter("server.migrated_out")),
      cluster_epoch_gauge_(metrics_.gauge("server.cluster_epoch")),
      db_rules_(metrics_.gauge("server.db_rules")),
      db_bytes_(metrics_.gauge("server.db_bytes")) {
  const std::size_t n = config_.worker_threads;
  const bool sharded =
      config_.threading == core::ThreadingMode::kShardPerWorker;
  threading_mode_.set(sharded ? 1 : 0);
  publish_db_stats();
  queue_wait_exemplar_.set_threshold(config_.slow_exemplar_us);
  service_exemplar_.set_threshold(config_.slow_exemplar_us);

  // Provider selection happens before any I/O thread exists (the uring
  // switch is not safe under concurrent recv/send). kUring degrades to the
  // kAuto rules when the kernel failed the capability probe, or under
  // shared-queue workers (the multishot ring has a single consumer). Say so
  // once — server.data_path carries the outcome forever.
  const bool uring_unusable =
      config_.data_path == net::UdpSocket::DataPath::kUring && !sharded;
  if (uring_unusable || !socket_.set_data_path(config_.data_path)) {
    JLOG_WARN("server: data-path '%s' unavailable (%s); using '%s'",
              net::UdpSocket::data_path_name(config_.data_path),
              uring_unusable ? "shared-queue workers share the socket"
                             : "kernel probe failed",
              net::UdpSocket::data_path_name(socket_.resolved_data_path()));
  }
  data_path_gauge_.set(
      static_cast<std::int64_t>(socket_.resolved_data_path()));
  fused_ = sharded &&
           socket_.resolved_data_path() == net::UdpSocket::DataPath::kUring;
  if (config_.pin_workers && sharded) {
    for (const CpuSlot& slot : plan_worker_cpus(n)) {
      pin_cpus_.push_back(slot.cpu);
    }
  }

  if (sharded) {
    // Each worker's SPSC ring takes an equal slice of the configured FIFO
    // budget, so both modes buffer the same number of in-flight datagrams.
    const std::size_t per_worker =
        std::max<std::size_t>(config_.fifo_capacity / n, 64);
    for (std::size_t i = 0; i < n; ++i) {
      auto w = std::make_unique<WorkerState>(per_worker,
                                             admission_->claim_shards(i, n));
      w->depth = &metrics_.gauge("server.worker_queue_depth.w" +
                                 std::to_string(i));
      w->rejects = &metrics_.counter("server.worker_queue_reject.w" +
                                     std::to_string(i));
      worker_state_.push_back(std::move(w));
    }
  }

  // Shared-queue workers read the socket themselves. Fused mode folds
  // worker 0 into the listener: only workers 1..N-1 get their own threads.
  if (fused_) {
    listener_ = std::thread([this] { listener_loop_fused(); });
  } else if (sharded) {
    listener_ = std::thread([this] { listener_loop(); });
  }
  for (std::size_t i = fused_ ? 1 : 0; i < n; ++i) {
    if (sharded) {
      workers_.emplace_back([this, i] { worker_loop_sharded(i); });
    } else {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
  if (config_.admission.refill_mode == core::RefillMode::kPeriodic &&
      config_.refill_interval.count() > 0) {
    maintenance_.push_back(std::make_unique<PeriodicTask>(
        config_.refill_interval, [this] {
          dispatch_maintenance(MaintCmd::Kind::kRefill, /*wait=*/false);
        }));
  }
  if (config_.sync_interval.count() > 0) {
    maintenance_.push_back(std::make_unique<PeriodicTask>(
        config_.sync_interval,
        [this] { dispatch_maintenance(MaintCmd::Kind::kSync, /*wait=*/true); }));
  }
  if (config_.checkpoint_interval.count() > 0) {
    maintenance_.push_back(std::make_unique<PeriodicTask>(
        config_.checkpoint_interval, [this] {
          dispatch_maintenance(MaintCmd::Kind::kCheckpoint, /*wait=*/true);
        }));
  }
  if (config_.watchdog_interval.count() > 0) {
    watchdog_last_progress_.assign(n, 0);
    watchdog_strikes_.assign(n, 0);
    maintenance_.push_back(std::make_unique<PeriodicTask>(
        config_.watchdog_interval, [this] { watchdog_pass(); }));
  }
}

QosServerNode::~QosServerNode() { stop(); }

Result<net::SockAddr> QosServerNode::start_admin(const net::SockAddr& addr,
                                                 std::string node_name) {
  net::AdminOptions opts;
  opts.node_name = std::move(node_name);
  opts.healthy = [this] { return !stopping_.load(std::memory_order_relaxed); };
  opts.extra_metrics = [this](const std::string& node) {
    return render_hot_key_metrics(node);
  };
  opts.extra_statusz = [this] {
    char probe[48];
    std::snprintf(probe, sizeof(probe), ",\"probe\":{\"rif\":%lld}",
                  static_cast<long long>(requests_in_flight()));
    return probe + render_hot_key_statusz() + render_cluster_statusz();
  };
  auto admin = net::AdminServer::start(addr, metrics_, std::move(opts));
  if (!admin.ok()) return Error(admin.error().message);
  admin_ = std::move(admin).take();
  return admin_->addr();
}

std::int64_t QosServerNode::requests_in_flight() const {
  // Received minus retired (answered, malformed, ring drops, deferred).
  // Counters are sampled independently so a burst can transiently skew the
  // difference — clamp instead of asserting.
  const std::int64_t retired = answered_.value() + malformed_.value() +
                               dropped_.value() + cluster_deferred_.value();
  const std::int64_t in = received_.value();
  return in > retired ? in - retired : 0;
}

namespace {

/// Prometheus label-value escaping (backslash, quote, newline) for the
/// key="" labels on the hot-key families.
std::string prom_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void append_hot_key_json(std::string& out,
                         const std::vector<HotKeyCount>& rows) {
  out += '[';
  bool first = true;
  for (const auto& row : rows) {
    if (!first) out += ',';
    first = false;
    out += "{\"key\":\"";
    flight_detail::append_json_escaped(out, row.key);
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "\",\"decisions\":%" PRIu64 ",\"rejects\":%" PRIu64
                  ",\"overestimate\":%" PRIu64 "}",
                  row.hits, row.rejects, row.overestimate);
    out += buf;
  }
  out += ']';
}

}  // namespace

std::string QosServerNode::render_hot_key_metrics(
    const std::string& node) const {
  // Top-16 keys by decision count as a gauge family keyed by the QoS key.
  // Gauges, not counters: Space-Saving counts can shrink when a slot is
  // evicted and re-inherited, and scrapes must tolerate key churn.
  const auto rows = admission_->hot_keys(/*by_rejects=*/false);
  const auto reject_rows = admission_->hot_keys(/*by_rejects=*/true);
  const std::string escaped_node = prom_escape(node);
  std::string out;
  auto family = [&](const char* fam, const std::vector<HotKeyCount>& list,
                    bool use_rejects) {
    out += "# TYPE ";
    out += fam;
    out += " gauge\n";
    for (const auto& row : list) {
      char buf[96];
      out += fam;
      out += "{node=\"" + escaped_node + "\",key=\"" + prom_escape(row.key) +
             "\"}";
      std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n",
                    use_rejects ? row.rejects : row.hits);
      out += buf;
    }
  };
  family("janus_server_hot_key_decisions", rows, false);
  family("janus_server_hot_key_rejects", reject_rows, true);
  return out;
}

std::string QosServerNode::render_hot_key_statusz() const {
  std::string out = ",\"hot_keys\":";
  append_hot_key_json(out, admission_->hot_keys(/*by_rejects=*/false));
  out += ",\"hot_keys_by_rejects\":";
  append_hot_key_json(out, admission_->hot_keys(/*by_rejects=*/true));
  return out;
}

void QosServerNode::watchdog_pass() {
  if (stopping_.load(std::memory_order_acquire)) return;
  publish_socket_stats();
  publish_db_stats();
  const bool sharded =
      config_.threading == core::ThreadingMode::kShardPerWorker;
  const std::uint64_t ts =
      static_cast<std::uint64_t>(SteadyClock::instance().now().count());

  if (sharded) {
    for (std::size_t i = 0; i < worker_state_.size(); ++i) {
      WorkerState& w = *worker_state_[i];
      const std::uint64_t progress =
          w.progress.load(std::memory_order_acquire);
      const bool backlog = !w.jobs.empty() || w.maint.size_approx() > 0;
      if (backlog && progress == watchdog_last_progress_[i]) {
        // Two-strike rule: the fused listener's bounded park (§13) can hold
        // a just-pushed maintenance command for up to 5 ms, so one sampled
        // tick is not a stall — the same backlog across two ticks is.
        if (watchdog_strikes_[i] < 2) ++watchdog_strikes_[i];
        if (watchdog_strikes_[i] >= 2) {
          watchdog_stalls_.inc();
          FlightRecorder::record(TraceEventType::kWatchdogStall,
                                 TraceStage::kWatchdog, /*trace=*/0,
                                 /*arg=*/i, ts);
          JLOG_WARN(
              "server: watchdog: worker %zu has backlog but made no "
              "progress for two full ticks (ring=%zu)",
              i, w.jobs.size_approx());
          FlightRecorder::instance().trigger_auto_dump("watchdog stall");
        }
      } else {
        watchdog_strikes_[i] = 0;
      }
      watchdog_last_progress_[i] = progress;
    }
    return;
  }

  // Shared-queue backlog lives in the kernel receive queue.
  const auto answered =
      static_cast<std::uint64_t>(answered_.value());
  const std::size_t next_bytes = socket_.rx_next_bytes();
  if (next_bytes > 0 && answered == watchdog_last_answered_) {
    if (watchdog_answered_strikes_ < 2) ++watchdog_answered_strikes_;
    if (watchdog_answered_strikes_ >= 2) {
      watchdog_stalls_.inc();
      FlightRecorder::record(TraceEventType::kWatchdogStall,
                             TraceStage::kWatchdog, /*trace=*/0,
                             /*arg=*/0, ts);
      JLOG_WARN(
          "server: watchdog: receive queue has backlog (next datagram %zu "
          "bytes) but no request completed for two full ticks",
          next_bytes);
      FlightRecorder::instance().trigger_auto_dump("watchdog stall");
    }
  } else {
    watchdog_answered_strikes_ = 0;
  }
  watchdog_last_answered_ = answered;
}

void QosServerNode::publish_db_stats() {
  db_rules_.set(static_cast<std::int64_t>(store_.size()));
  db_bytes_.set(static_cast<std::int64_t>(store_.memory_bytes()));
}

void QosServerNode::sync_now() {
  dispatch_maintenance(MaintCmd::Kind::kSync, /*wait=*/true);
}

void QosServerNode::checkpoint_now() {
  dispatch_maintenance(MaintCmd::Kind::kCheckpoint, /*wait=*/true);
}

void QosServerNode::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  // Order matters twice over. Periodic dispatchers may be blocked waiting on
  // worker latches, so they are stopped while the workers still drain
  // commands. And the shard-per-worker listener must be joined BEFORE the
  // workers are allowed to exit: it is the sole SPSC producer, and a worker
  // that observed stopping_ with an empty ring could otherwise exit while
  // the listener's final batch was still being fanned out — stranding
  // accepted jobs that would never be answered (the shutdown-ordering
  // regression in tests/server/test_server_shutdown.cpp). listener_done_ is
  // the gate the sharded workers wait on. Shutting the read side wakes the
  // threads blocked on the socket; a shared-queue worker finishes the batch
  // it holds, and what is still in the kernel queue was never received.
  for (auto& task : maintenance_) task->stop();
  if (!fused_) socket_.shutdown_read();
  if (listener_.joinable()) listener_.join();
  listener_done_.store(true, std::memory_order_release);
  for (auto& w : worker_state_) {
    MutexLock lock(w->park_mu);
    w->park_cv.notify_one();
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Final socket-counter delta: the watchdog (now joined) can no longer
  // race this, and the I/O threads are gone, so the snapshot is exact.
  publish_socket_stats();
  if (admin_) admin_->stop();
}

TimePoint QosServerNode::sample_clock(std::int64_t first, std::size_t i) {
  const auto arrival = static_cast<std::uint64_t>(first) + i;
  return (arrival & ((1u << kTimingSampleShift) - 1)) == 0
             ? SteadyClock::instance().now()
             : kTimeZero;
}

void QosServerNode::wake_worker(WorkerState& w) {
  if (!w.parked.load(std::memory_order_acquire)) return;
  MutexLock lock(w.park_mu);
  w.park_cv.notify_one();
}

void QosServerNode::listener_loop() {
  // One wakeup = one recvmmsg draining up to recv_batch datagrams, fanned
  // out to the owning workers' SPSC rings. Scratch buffers live across
  // iterations, so a warm listener's only per-datagram allocation is each
  // Job's owning copy of the (small) frame — the arena itself is reused.
  FlightRecorder::label_current_thread("server.listener");
  net::UdpSocket::RecvBatch batch(config_.recv_batch);
  std::vector<bool> touched(worker_state_.size(), false);
  const core::ShardedQosTable& table = admission_->table();
  const std::size_t workers = worker_state_.size();

  while (!stopping_.load(std::memory_order_relaxed)) {
    auto got = socket_.recv_many(batch, millis(50));
    if (!got.ok()) {
      // purity-ok: recv-error path only — never taken for healthy traffic
      JLOG_WARN("server: recv failed: %s", got.error().message.c_str());
      continue;
    }
    const std::size_t n = got.value();
    if (n == 0) continue;  // timeout: re-check stopping_
    // Per-datagram semantics under batching: every datagram counts in
    // server.received and takes its own turn in the 1-in-2^k timing
    // sample, exactly as when they arrived one syscall apiece.
    const std::int64_t arrival = received_.inc(static_cast<std::int64_t>(n));
    recv_batch_size_.record(static_cast<std::int64_t>(n));

    // Fan-out: hash each key once (the same CRC pass the decision reuses),
    // derive the owning shard from the upper hash bits, the owning worker
    // from `shard % workers`, and push to that worker's SPSC ring.
    // Malformed frames carry hash 0 and go to worker 0, which answers
    // kMalformed exactly as a shared-queue worker would.
    std::fill(touched.begin(), touched.end(), false);
    for (std::size_t i = 0; i < n; ++i) {
      const TimePoint enqueued = sample_clock(arrival, i);
      auto data = batch.data(i);
      std::size_t hash = 0;
      std::size_t target = 0;
      std::uint64_t trace_hash = 0;
      if (auto req = wire::decode_request_view(data); req.ok()) {
        hash = TransparentStringHash::hash_bytes(req.value().key);
        target = table.shard_index_of(hash) % workers;
        if (!req.value().trace_id.empty() && FlightRecorder::enabled()) {
          trace_hash = FlightRecorder::hash_trace(req.value().trace_id);
        }
      }
      WorkerState& w = *worker_state_[target];
      // purity-ok: per-datagram owning copy — the shard-per-worker ring
      // purity-ok: hand-off; the fused and shared-queue paths have none
      std::vector<std::uint8_t> payload(data.begin(), data.end());
      if (!w.jobs.try_push(Job{net::UdpSocket::Datagram{std::move(payload),
                                                        batch.from(i)},
                               enqueued, hash})) {
        dropped_.inc();  // this worker's ring is full — same drop semantics
        w.rejects->inc();
        if (FlightRecorder::enabled()) {
          // Rejects are rare (overload only); the extra clock read is off
          // the common path.
          FlightRecorder::record(
              TraceEventType::kQueueReject, TraceStage::kServerListener,
              trace_hash, target,
              static_cast<std::uint64_t>(
                  SteadyClock::instance().now().count()));
        }
        continue;
      }
      if (trace_hash != 0) {
        // Traced requests record the ring depth they landed behind — the
        // queueing part of the reconstructed request timeline.
        FlightRecorder::record(
            TraceEventType::kQueueDepth, TraceStage::kServerListener,
            trace_hash, w.jobs.size_approx(),
            static_cast<std::uint64_t>(
                enqueued != kTimeZero
                    ? enqueued.count()
                    : SteadyClock::instance().now().count()));
      }
      touched[target] = true;
    }
    for (std::size_t wi = 0; wi < workers; ++wi) {
      if (!touched[wi]) continue;
      WorkerState& w = *worker_state_[wi];
      w.depth->set(static_cast<std::int64_t>(w.jobs.size_approx()));
      wake_worker(w);
    }
  }
}

QosServerNode::ReplyBuffers::ReplyBuffers(std::size_t batch)
    : outs(batch),
      dequeued_at(batch, TimePoint{kTimeZero}),
      wait_us(batch, -1),
      keys(batch),
      traces(batch) {
  replies.reserve(batch);
}

void QosServerNode::run_jobs(std::span<const JobView> jobs,
                             const core::ShardOwnerToken* token,
                             ReplyBuffers& buf) {
  // Decisions are zero-copy: each JobView (and decode_request_view below)
  // aliases the datagram bytes — a popped Job's owning buffer, or the
  // receiving thread's RecvBatch slot directly — and the admission
  // check takes the key as a string_view, so a warm-key request allocates
  // nothing (tests/perf/test_hotpath_allocs.cpp) — in shard-per-worker
  // mode it also locks nothing (owner-token path, reusing the hash the
  // listener computed).
  buf.replies.clear();
  send_batch_size_.record(static_cast<std::int64_t>(jobs.size()));
  auto& faults = testing::FaultInjector::instance();

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobView& job = jobs[i];
    if (faults.should_fire(testing::FaultPoint::kServerSlowService)) {
      // Service-time inflation (§V's overload knee, provoked on demand):
      // the worker stalls param µs before touching the request. Fires per
      // datagram — a batch of N consults the point N times.
      // purity-ok: deterministic fault injection — chaos builds only
      std::this_thread::sleep_for(std::chrono::microseconds(
          faults.param(testing::FaultPoint::kServerSlowService)));
    }
    const bool timed = job.enqueued != kTimeZero;
    buf.wait_us[i] = -1;
    buf.dequeued_at[i] = TimePoint{kTimeZero};
    if (timed) {
      buf.dequeued_at[i] = SteadyClock::instance().now();
      buf.wait_us[i] = (buf.dequeued_at[i] - job.enqueued).count() / 1000;
      queue_wait_us_.record(buf.wait_us[i]);
    }

    auto req = wire::decode_request_view(job.data);
    wire::QosResponse resp;
    buf.keys[i] = {};
    buf.traces[i] = {};
    if (!req.ok()) {
      malformed_.inc();
      resp.status = wire::ResponseStatus::kMalformed;
      wire::encode_to(resp, buf.outs[i]);
      // purity-ok: amortized growth into the reserved reply descriptor list
      buf.replies.push_back({*job.from, buf.outs[i]});
      continue;
    }
    const wire::QosRequestView& r = req.value();
    resp.request_id = r.request_id;
    resp.status = wire::ResponseStatus::kOk;
    buf.keys[i] = r.key;
    buf.traces[i] = r.trace_id;

    // Cluster epoch gate (DESIGN.md §11.3). Outside cluster mode every
    // frame carries epoch 0 and this is one never-taken branch — the warm
    // path stays zero-allocation and mutex-free. A stale frame is NACKed
    // with the current epoch so the router re-routes against the new map
    // instead of this node deciding against a partition it no longer owns.
    if (r.epoch != 0) {
      const std::uint64_t current =
          cluster_epoch_.load(std::memory_order_acquire);
      if (r.epoch != current) {
        stale_nacks_.inc();
        stale_nacks_count_.fetch_add(1, std::memory_order_relaxed);
        resp.status = wire::ResponseStatus::kStaleEpoch;
        resp.epoch = current;
        wire::encode_to(resp, buf.outs[i]);
        answered_.inc();
        // purity-ok: amortized growth into the reserved reply descriptor list
        buf.replies.push_back({*job.from, buf.outs[i]});
        continue;
      }
      resp.epoch = current;
      if (defer_for_migration(r.key, job.key_hash, token)) {
        // Inbound-migration window: this key's bucket is still in flight
        // from the old owner. No reply — the router's retry (or its
        // default-deny on exhaustion) guarantees zero over-admission.
        cluster_deferred_.inc();
        continue;
      }
    }
    // wait_us is -1 for untimed jobs, so a disabled/unsampled job can never
    // cross the (non-negative) exemplar threshold.
    queue_wait_exemplar_.record(buf.wait_us[i], r.trace_id, r.key);

    // Traced requests get an always-on worker span (enter -> reply flushed
    // is approximated by enter -> decision here; the flush is covered by
    // service_us). Traced traffic is rare, so the two clock reads stay off
    // the contended-decision budget.
    const bool span_traced = !r.trace_id.empty() && FlightRecorder::enabled();
    std::uint64_t trace_hash = 0;
    if (span_traced) {
      trace_hash = FlightRecorder::hash_trace(r.trace_id);
      FlightRecorder::record(
          TraceEventType::kStageEnter, TraceStage::kServerWorker, trace_hash,
          static_cast<std::uint64_t>(r.type),
          static_cast<std::uint64_t>(SteadyClock::instance().now().count()));
    }

    core::Decision decision;
    switch (r.type) {
      case wire::RequestType::kCheck:
        decision = token
                       ? admission_->check_owned(*token, r.key, job.key_hash,
                                                 r.cost)
                       : admission_->check(r.key, r.cost);
        break;
      case wire::RequestType::kProbe:
        decision = token
                       ? admission_->probe_owned(*token, r.key, job.key_hash,
                                                 r.cost)
                       : admission_->probe(r.key, r.cost);
        break;
      case wire::RequestType::kSync:
        if (token) {
          admission_->invalidate_owned(*token, r.key, job.key_hash);
          decision = admission_->probe_owned(*token, r.key, job.key_hash, 0);
        } else {
          admission_->invalidate(r.key);
          decision = admission_->probe(r.key, 0);
        }
        break;
    }
    if (span_traced) {
      FlightRecorder::record(
          TraceEventType::kStageExit, TraceStage::kServerWorker, trace_hash,
          decision.allowed ? 1 : 0,
          static_cast<std::uint64_t>(SteadyClock::instance().now().count()));
    }
    resp.allowed = decision.allowed;
    resp.remaining_millicredits = decision.remaining_millicredits;

    wire::encode_to(resp, buf.outs[i]);
    // Count before sending: a fast client must never observe a response
    // whose counter update is still pending (metrics are read by tests
    // and operators the moment a reply lands).
    answered_.inc();
    // purity-ok: amortized growth into the reserved reply descriptor list
    buf.replies.push_back({*job.from, buf.outs[i]});

    if (!r.trace_id.empty()) {
      // wait_us is -1 when this request was not in the 1-in-8 timing
      // sample. The key/trace views alias the datagram buffer; %.*s
      // prints them without materializing strings.
      // purity-ok: traced requests only — rare by construction
      JLOG_DEBUG("server: trace=%.*s key=%.*s allowed=%d wait_us=%lld",
                 static_cast<int>(r.trace_id.size()), r.trace_id.data(),
                 static_cast<int>(r.key.size()), r.key.data(),
                 decision.allowed ? 1 : 0,
                 static_cast<long long>(buf.wait_us[i]));
    }
  }

  // service_us spans dequeue -> reply ready, recorded before the flush for
  // the reason answered_ counts first: with the next request on another
  // worker, a client holding its reply must already see the sample. One
  // clock read serves the batch.
  const TimePoint ready = SteadyClock::instance().now();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (buf.dequeued_at[i] != kTimeZero) {
      const std::int64_t service_us =
          (ready - buf.dequeued_at[i]).count() / 1000;
      service_us_.record(service_us);
      // keys/traces alias the datagram bytes jobs[i] views, still alive.
      service_exemplar_.record(service_us, buf.traces[i], buf.keys[i]);
    }
  }

  // Fire-and-forget (§III-C): "the worker thread does not care about
  // whether the request router receives the response or not." One
  // sendmmsg covers the whole burst.
  (void)socket_.send_many(buf.replies);
}

void QosServerNode::worker_loop() {
  // kSharedQueue, run to completion: block in recvmmsg on the shared socket
  // (one waiter woken per datagram), decide up to send_batch requests as
  // views over this worker's own receive slots under the shard mutexes,
  // reply in one sendmmsg. stop()'s shutdown_read returns recv_many with 0.
  FlightRecorder::label_current_thread("server.worker");
  net::UdpSocket::RecvBatch batch(config_.send_batch);
  std::vector<JobView> views;
  // purity-ok: loop-start setup — sized once per thread, before any traffic
  views.reserve(batch.capacity());
  ReplyBuffers buf(batch.capacity());

  while (!stopping_.load(std::memory_order_acquire)) {
    auto got = socket_.recv_many(batch, Duration{-1});
    if (!got.ok()) {
      // purity-ok: recv-error path only — never taken for healthy traffic
      JLOG_WARN("server: recv failed: %s", got.error().message.c_str());
      continue;
    }
    const std::size_t n = got.value();
    if (n == 0) continue;  // read side shut down, or every datagram filtered
    const std::int64_t arrival = received_.inc(static_cast<std::int64_t>(n));
    recv_batch_size_.record(static_cast<std::int64_t>(n));
    views.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const TimePoint received = sample_clock(arrival, i);
      // purity-ok: amortized growth into the reserved views scratch vector
      views.push_back(JobView{batch.data(i), &batch.from(i), received});
    }
    run_jobs(views, /*token=*/nullptr, buf);
  }
}

void QosServerNode::worker_loop_sharded(std::size_t index) {
  // kShardPerWorker: this thread exclusively owns shards
  // `s % workers == index`. Jobs arrive on its SPSC ring (listener is the
  // only producer), maintenance arrives as commands on its MPMC queue, and
  // every table touch goes through the ShardOwnerToken — no mutex anywhere
  // on the decision path. Idle workers spin briefly, then park on the
  // kWorkerPark condvar; the bounded wait is the lost-wakeup backstop.
  WorkerState& st = *worker_state_[index];
  // purity-ok: one-time thread labeling — allocates the label string once
  FlightRecorder::label_current_thread("server.worker." +
                                       // purity-ok: one-time thread labeling
                                       std::to_string(index));
  const std::size_t batch = config_.send_batch;
  if (index < pin_cpus_.size() && !pin_current_thread(pin_cpus_[index])) {
    // purity-ok: one-time startup warning, before any traffic
    JLOG_WARN("server: worker %zu: pin to cpu %d refused; running unpinned",
              index, pin_cpus_[index]);
  }
  std::vector<Job> jobs;
  std::vector<JobView> views;
  // purity-ok: loop-start setup — sized once per thread, before any traffic
  jobs.reserve(batch);
  // purity-ok: loop-start setup — sized once per thread, before any traffic
  views.reserve(batch);
  ReplyBuffers buf(batch);
  int idle_spins = 0;

  while (true) {
    bool did_work = false;

    jobs.clear();
    while (jobs.size() < batch) {
      auto job = st.jobs.try_pop();
      if (!job) break;
      // purity-ok: amortized growth into the reserved jobs scratch vector
      jobs.push_back(std::move(*job));
    }
    if (!jobs.empty()) {
      views.clear();
      for (const Job& j : jobs) {
        // purity-ok: amortized growth into the reserved views scratch vector
        views.push_back(
            JobView{j.dg.data, &j.dg.from, j.enqueued, j.key_hash});
      }
      run_jobs(views, &st.token, buf);
      st.depth->set(static_cast<std::int64_t>(st.jobs.size_approx()));
      did_work = true;
    }

    if (drain_maintenance(st)) did_work = true;

    if (did_work) {
      st.progress.fetch_add(1, std::memory_order_release);
      idle_spins = 0;
      continue;
    }
    if (stopping_.load(std::memory_order_acquire) &&
        listener_done_.load(std::memory_order_acquire) && st.jobs.empty() &&
        st.maint.size_approx() == 0) {
      break;
    }
    if (++idle_spins < 64) {
      std::this_thread::yield();
      continue;
    }
    idle_spins = 0;
    MutexLock lock(st.park_mu);
    st.parked.store(true, std::memory_order_release);
    // Re-check under parked=true before sleeping: a producer that pushed
    // after our empty drain either sees parked and notifies, or pushed
    // early enough that this check sees the item. The 10 ms bound covers
    // the remaining (benign) race windows and shutdown.
    if (st.jobs.empty() && st.maint.size_approx() == 0 &&
        !stopping_.load(std::memory_order_acquire)) {
      st.park_cv.wait_for(st.park_mu, millis(10));
    }
    st.parked.store(false, std::memory_order_release);
  }
}

bool QosServerNode::drain_maintenance(WorkerState& st) {
  bool did_work = false;
  while (auto cmd = st.maint.try_pop()) {
    switch (cmd->kind) {
      case MaintCmd::Kind::kRefill:
        // purity-ok: maintenance slice — command path, not per-request
        admission_->refill_owned(st.token);
        break;
      case MaintCmd::Kind::kSync:
        // purity-ok: maintenance slice — command path, not per-request
        admission_->sync_owned(st.token);
        break;
      case MaintCmd::Kind::kCheckpoint:
        // purity-ok: maintenance slice — command path, not per-request
        admission_->checkpoint_owned(st.token, sink_);
        break;
      case MaintCmd::Kind::kClusterFn:
        // Migration extract/install slice: the dispatcher blocks on the
        // done latch, so *cmd->fn outlives this call.
        if (cmd->fn) (*cmd->fn)(st.token);
        break;
    }
    if (cmd->done) cmd->done->fetch_add(1, std::memory_order_release);
    did_work = true;
  }
  return did_work;
}

void QosServerNode::listener_loop_fused() {
  // Run-to-completion (DESIGN.md §13): this thread is both the listener and
  // worker 0. Datagrams whose shards it owns are decided as views straight
  // over the socket's registered receive buffers — no SPSC hand-off, no
  // per-datagram payload copy, no wake. Everything else is copied into a
  // Job and fanned out exactly as the plain listener does. Between batches
  // it drains worker 0's maintenance queue (it holds that owner token).
  //
  // Poll policy: while work keeps arriving, recv_many is called with a zero
  // timeout — a pure CQ drain plus one non-waiting enter, i.e. busy
  // polling. After kFusedIdleSpins consecutive empty polls the loop parks
  // in a bounded 5 ms io_uring_enter wait instead — idle nodes burn no CPU,
  // and the first datagram after a lull still lands within the multishot's
  // kernel-side completion (no sleep/retry ladder to climb).
  FlightRecorder::label_current_thread("server.listener");
  WorkerState& self = *worker_state_[0];
  if (!pin_cpus_.empty() && !pin_current_thread(pin_cpus_[0])) {
    // purity-ok: one-time startup warning, before any traffic
    JLOG_WARN("server: fused listener: pin to cpu %d refused; unpinned",
              pin_cpus_[0]);
  }
  net::UdpSocket::RecvBatch batch(config_.recv_batch);
  std::vector<JobView> inline_jobs;
  // purity-ok: loop-start setup — sized once per thread, before any traffic
  inline_jobs.reserve(batch.capacity());
  ReplyBuffers buf(batch.capacity());
  std::vector<bool> touched(worker_state_.size(), false);
  const core::ShardedQosTable& table = admission_->table();
  const std::size_t workers = worker_state_.size();
  int idle_spins = 0;

  while (true) {
    if (stopping_.load(std::memory_order_acquire)) {
      // Mirror worker shutdown: run any maintenance already accepted
      // (run_on_owners blocks on its latch), then exit. Unread datagrams
      // are abandoned exactly as the plain listener abandons its socket
      // queue — the router's retry covers them.
      drain_maintenance(self);
      if (self.maint.size_approx() == 0) break;
      continue;
    }
    const bool park = idle_spins >= kFusedIdleSpins;
    auto got = socket_.recv_many(batch, park ? millis(5) : Duration{0});
    if (!got.ok()) {
      // purity-ok: recv-error path only — never taken for healthy traffic
      JLOG_WARN("server: recv failed: %s", got.error().message.c_str());
      ++idle_spins;
      continue;
    }
    const std::size_t n = got.value();
    bool did_work = false;

    if (n > 0) {
      const std::int64_t arrival =
          received_.inc(static_cast<std::int64_t>(n));
      recv_batch_size_.record(static_cast<std::int64_t>(n));
      inline_jobs.clear();
      std::fill(touched.begin(), touched.end(), false);
      for (std::size_t i = 0; i < n; ++i) {
        const TimePoint enqueued = sample_clock(arrival, i);
        auto data = batch.data(i);
        std::size_t hash = 0;
        std::size_t target = 0;
        if (auto req = wire::decode_request_view(data); req.ok()) {
          hash = TransparentStringHash::hash_bytes(req.value().key);
          target = table.shard_index_of(hash) % workers;
        }
        if (target == 0) {
          // Own shard: decide inline, zero copy. The view aliases the
          // receive slot, which stays app-owned until the next recv_many.
          // purity-ok: amortized growth into the reserved inline scratch
          inline_jobs.push_back(JobView{data, &batch.from(i), enqueued, hash});
          continue;
        }
        WorkerState& w = *worker_state_[target];
        // purity-ok: per-datagram owning copy — cross-worker hand-off only
        std::vector<std::uint8_t> payload(data.begin(), data.end());
        if (!w.jobs.try_push(Job{net::UdpSocket::Datagram{std::move(payload),
                                                          batch.from(i)},
                                 enqueued, hash})) {
          dropped_.inc();
          w.rejects->inc();
          continue;
        }
        touched[target] = true;
      }
      for (std::size_t wi = 1; wi < workers; ++wi) {
        if (!touched[wi]) continue;
        WorkerState& w = *worker_state_[wi];
        w.depth->set(static_cast<std::int64_t>(w.jobs.size_approx()));
        wake_worker(w);
      }
      if (!inline_jobs.empty()) {
        run_jobs(inline_jobs, &self.token, buf);
      }
      did_work = true;
    }

    if (drain_maintenance(self)) did_work = true;

    if (did_work) {
      self.progress.fetch_add(1, std::memory_order_release);
      idle_spins = 0;
      continue;
    }
    ++idle_spins;
  }
}

void QosServerNode::publish_socket_stats() {
  const std::uint64_t rx_dropped = socket_.rx_dropped();
  rx_dropped_.inc(static_cast<std::int64_t>(rx_dropped - rx_dropped_last_));
  rx_dropped_last_ = rx_dropped;
  const net::UdpSocket::UringStats cur = socket_.uring_stats();
  uring_recv_batches_.inc(
      static_cast<std::int64_t>(cur.recv_batches - uring_last_.recv_batches));
  uring_recv_datagrams_.inc(static_cast<std::int64_t>(
      cur.recv_datagrams - uring_last_.recv_datagrams));
  uring_send_batches_.inc(
      static_cast<std::int64_t>(cur.send_batches - uring_last_.send_batches));
  uring_send_datagrams_.inc(static_cast<std::int64_t>(
      cur.send_datagrams - uring_last_.send_datagrams));
  uring_rearms_.inc(
      static_cast<std::int64_t>(cur.rearms - uring_last_.rearms));
  uring_buf_recycles_.inc(
      static_cast<std::int64_t>(cur.buf_recycles - uring_last_.buf_recycles));
  uring_send_errors_.inc(
      static_cast<std::int64_t>(cur.send_errors - uring_last_.send_errors));
  uring_last_ = cur;
}

void QosServerNode::set_cluster_epoch(std::uint64_t epoch) {
  cluster_epoch_.store(epoch, std::memory_order_release);
  cluster_epoch_gauge_.set(static_cast<std::int64_t>(epoch));
}

void QosServerNode::open_migration_window(Duration window) {
  if (window.count() <= 0) return;
  const std::int64_t until =
      (SteadyClock::instance().now() + window).count();
  migrate_window_until_.store(until, std::memory_order_release);
}

bool QosServerNode::defer_for_migration(std::string_view key, std::size_t hash,
                                        const core::ShardOwnerToken* token) {
  const std::int64_t until =
      migrate_window_until_.load(std::memory_order_acquire);
  if (until == 0) return false;
  const std::int64_t now = SteadyClock::instance().now().count();
  if (now >= until) {
    // Window elapsed: self-close so the steady state goes back to one
    // relaxed load. Racing workers may CAS-fail; either way it is closed.
    std::int64_t expected = until;
    migrate_window_until_.compare_exchange_strong(expected, 0);
    return false;
  }
  const bool present =
      token != nullptr
          ? admission_->table()
                // unlocked-ok: owner-token call site (shard-per-worker)
                .with_entry_unlocked(*token, key, hash,
                                     [](core::QosEntry&) { return true; })
                .has_value()
          : admission_->table().contains(key);
  return !present;
}

namespace {

wire::MigrationEntry to_migration_entry(const std::string& key,
                                        const core::QosEntry& entry) {
  return wire::MigrationEntry{.key = key,
                              .capacity = entry.rule.capacity,
                              .refill_per_sec = entry.rule.refill_per_sec,
                              .credit = entry.bucket.credit(),
                              .is_default = entry.is_default};
}

core::QosEntry from_migration_entry(const wire::MigrationEntry& e,
                                    TimePoint now) {
  // Mirrors ha.cpp restore_table: the migrated credit is the authoritative
  // water level; the bucket resumes refilling from `now` on the new owner.
  core::QosRule rule{.key = e.key,
                     .capacity = e.capacity,
                     .refill_per_sec = e.refill_per_sec,
                     .initial_credit = e.credit};
  return core::QosEntry{
      .rule = rule,
      .bucket = core::LeakyBucket(e.capacity, e.refill_per_sec, e.credit, now),
      .is_default = e.is_default};
}

}  // namespace

std::vector<std::vector<wire::MigrationEntry>> QosServerNode::extract_disowned(
    const cluster::ShardMap& map, std::size_t self_index) {
  std::vector<std::vector<wire::MigrationEntry>> out(map.size());
  const bool sharded =
      config_.threading == core::ThreadingMode::kShardPerWorker;
  const std::uint64_t ts =
      static_cast<std::uint64_t>(SteadyClock::instance().now().count());
  FlightRecorder::record(TraceEventType::kStageEnter,
                         TraceStage::kClusterMigrate, /*trace=*/0,
                         /*arg=*/map.epoch, ts);

  if (!sharded || stopping_.load(std::memory_order_acquire)) {
    // Shared-queue (or post-stop) path: the shard locks are the discipline.
    std::vector<std::string> doomed;
    admission_->table().for_each(
        [&](const std::string& key, core::QosEntry& entry) {
          const std::size_t owner = map.owner_of(key);
          if (owner == self_index) return;
          out[owner].push_back(to_migration_entry(key, entry));
          doomed.push_back(key);
        });
    for (const std::string& key : doomed) admission_->table().erase(key);
  } else {
    // Shard-per-worker: each owner extracts its own slice on its own
    // thread; slices land in per-worker slots (no shared mutation).
    std::vector<std::vector<std::vector<wire::MigrationEntry>>> slices(
        worker_state_.size(),
        std::vector<std::vector<wire::MigrationEntry>>(map.size()));
    std::function<void(const core::ShardOwnerToken&)> fn =
        [&](const core::ShardOwnerToken& token) {
          auto& mine = slices[token.worker_index()];
          std::vector<std::string> doomed;
          // unlocked-ok: owner-token call site (shard-per-worker)
          admission_->table().for_each_owned(
              token, [&](const std::string& key, core::QosEntry& entry) {
                const std::size_t owner = map.owner_of(key);
                if (owner == self_index) return;
                mine[owner].push_back(to_migration_entry(key, entry));
                doomed.push_back(key);
              });
          for (const std::string& key : doomed) {
            // unlocked-ok: owner-token call site (shard-per-worker)
            admission_->table().erase_unlocked(
                token, key, TransparentStringHash::hash_bytes(key));
          }
        };
    run_on_owners(fn);
    for (auto& slice : slices) {
      for (std::size_t owner = 0; owner < slice.size(); ++owner) {
        auto& bucket = slice[owner];
        out[owner].insert(out[owner].end(),
                          std::make_move_iterator(bucket.begin()),
                          std::make_move_iterator(bucket.end()));
      }
    }
  }

  std::size_t total = 0;
  for (const auto& bucket : out) total += bucket.size();
  migrated_out_.inc(static_cast<std::int64_t>(total));
  migrated_out_count_.fetch_add(total, std::memory_order_relaxed);
  FlightRecorder::record(
      TraceEventType::kStageExit, TraceStage::kClusterMigrate, /*trace=*/0,
      /*arg=*/total,
      static_cast<std::uint64_t>(SteadyClock::instance().now().count()));
  return out;
}

std::size_t QosServerNode::install_migrated(
    const std::vector<wire::MigrationEntry>& entries) {
  const bool sharded =
      config_.threading == core::ThreadingMode::kShardPerWorker;
  const TimePoint now = SteadyClock::instance().now();
  FlightRecorder::record(TraceEventType::kStageEnter,
                         TraceStage::kClusterMigrate, /*trace=*/0,
                         /*arg=*/entries.size(),
                         static_cast<std::uint64_t>(now.count()));

  if (!sharded || stopping_.load(std::memory_order_acquire)) {
    for (const wire::MigrationEntry& e : entries) {
      admission_->table().with_entry_or_create(
          e.key, [&] { return from_migration_entry(e, now); },
          [&](core::QosEntry& cur) { cur = from_migration_entry(e, now); });
    }
  } else {
    // Broadcast the whole batch; each worker installs only the entries
    // whose shard it owns (the same `shard % workers` remap the listener
    // routes by), so every entry is installed exactly once.
    core::ShardedQosTable& table = admission_->table();
    std::function<void(const core::ShardOwnerToken&)> fn =
        [&](const core::ShardOwnerToken& token) {
          for (const wire::MigrationEntry& e : entries) {
            const std::size_t hash = TransparentStringHash::hash_bytes(e.key);
            if (!token.owns(table.shard_index_of(hash))) continue;
            // unlocked-ok: owner-token call site (shard-per-worker)
            table.with_entry_or_create_unlocked(
                token, e.key, hash,
                [&] { return from_migration_entry(e, now); },
                [&](core::QosEntry& cur) {
                  cur = from_migration_entry(e, now);
                });
          }
        };
    run_on_owners(fn);
  }

  migrated_in_.inc(static_cast<std::int64_t>(entries.size()));
  migrated_in_count_.fetch_add(entries.size(), std::memory_order_relaxed);
  FlightRecorder::record(
      TraceEventType::kStageExit, TraceStage::kClusterMigrate, /*trace=*/0,
      /*arg=*/entries.size(),
      static_cast<std::uint64_t>(SteadyClock::instance().now().count()));
  return entries.size();
}

void QosServerNode::run_on_owners(
    const std::function<void(const core::ShardOwnerToken&)>& fn) {
  std::atomic<std::size_t> done{0};
  std::size_t accepted = 0;
  for (auto& w : worker_state_) {
    MaintCmd cmd{MaintCmd::Kind::kClusterFn, &done, &fn};
    bool pushed = false;
    for (int attempt = 0; attempt < 1000; ++attempt) {
      if (w->maint.try_push(cmd)) {
        pushed = true;
        break;
      }
      if (stopping_.load(std::memory_order_acquire)) break;
      std::this_thread::yield();
    }
    if (pushed) {
      ++accepted;
      wake_worker(*w);
    } else {
      // A skipped slice here loses migrating bucket state; unlike periodic
      // maintenance there is no next round, so make it loud.
      maint_rejected_.inc();
      JLOG_WARN("server: cluster pass could not reach worker (queue full)");
    }
  }
  while (done.load(std::memory_order_acquire) < accepted) {
    std::this_thread::yield();
  }
}

std::string QosServerNode::render_cluster_statusz() const {
  const std::uint64_t epoch = cluster_epoch_.load(std::memory_order_acquire);
  if (epoch == 0) return {};
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                ",\"cluster\":{\"epoch\":%" PRIu64 ",\"migrated_in\":%" PRIu64
                ",\"migrated_out\":%" PRIu64 ",\"stale_nacks\":%" PRIu64 "}",
                epoch, migrated_in_count_.load(std::memory_order_relaxed),
                migrated_out_count_.load(std::memory_order_relaxed),
                stale_nacks_count_.load(std::memory_order_relaxed));
  return buf;
}

void QosServerNode::dispatch_maintenance(MaintCmd::Kind kind, bool wait) {
  const bool sharded =
      config_.threading == core::ThreadingMode::kShardPerWorker;
  if (!sharded || stopping_.load(std::memory_order_acquire)) {
    // Shared-queue mode, or the workers are gone (e.g. checkpoint-on-
    // shutdown after stop()): run the locked pass directly — with no
    // concurrent owner threads the shard locks are safe again.
    switch (kind) {
      case MaintCmd::Kind::kRefill:
        admission_->refill_all();
        break;
      case MaintCmd::Kind::kSync:
        admission_->sync_now();
        break;
      case MaintCmd::Kind::kCheckpoint:
        admission_->checkpoint_now(sink_);
        break;
      case MaintCmd::Kind::kClusterFn:
        break;  // never dispatched through here (run_on_owners only)
    }
    return;
  }

  // Enqueue the command to every owner; each runs the pass over exactly its
  // own shards, so the union is one full table pass without a single shard
  // lock. `done` lives on this stack frame — the wait loop below must not
  // be skipped when any command was accepted with a latch attached.
  std::atomic<std::size_t> done{0};
  std::size_t accepted = 0;
  for (auto& w : worker_state_) {
    MaintCmd cmd{kind, wait ? &done : nullptr};
    bool pushed = false;
    for (int attempt = 0; attempt < 1000; ++attempt) {
      if (w->maint.try_push(cmd)) {
        pushed = true;
        break;
      }
      // Ring full: the worker is already behind on maintenance; let it
      // drain. Stop retrying if the node is shutting down underneath us.
      if (stopping_.load(std::memory_order_acquire)) break;
      std::this_thread::yield();
    }
    if (pushed) {
      ++accepted;
      wake_worker(*w);
    } else {
      // MPMC maintenance ring stayed full through every retry: that slice
      // of the pass is skipped this round. Invisible before this counter.
      maint_rejected_.inc();
    }
  }
  if (!wait) return;
  while (done.load(std::memory_order_acquire) < accepted) {
    std::this_thread::yield();
  }
}

}  // namespace janus::server
