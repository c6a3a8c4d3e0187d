#include "v6class/stream/engine.h"

#include <algorithm>

#include "v6class/obs/introspect.h"
#include "v6class/obs/pmu.h"
#include "v6class/obs/profile.h"
#include "v6class/obs/timer.h"
#include "v6class/par/pool.h"
#include "v6class/simd/kernels.h"

namespace v6 {

void stream_engine::init_metrics() {
    if (cfg_.metrics_registry) {
        metrics_ = cfg_.metrics_registry;
    } else {
        own_metrics_ = std::make_unique<obs::registry>();
        metrics_ = own_metrics_.get();
    }
    obs::registry& reg = *metrics_;
    // Core feed counters: always on; stats() is a view over these.
    m_.fed = reg.get_counter("v6_stream_fed_total", {},
                             "Records offered to push() (accepted + late + "
                             "dropped).");
    m_.records = reg.get_counter("v6_stream_records_total", {},
                                 "Records accepted into the open day.");
    m_.hits = reg.get_counter("v6_stream_hits_total", {},
                              "Sum of accepted records' hit counts.");
    m_.late = reg.get_counter("v6_stream_late_total", {},
                              "Records older than the open day, dropped "
                              "(sealed days are immutable).");
    m_.dropped = reg.get_counter("v6_stream_dropped_total", {},
                                 "Records pushed after finish(), dropped.");
    m_.batches = reg.get_counter("v6_stream_batches_total", {},
                                 "Batches enqueued to shard queues.");
    m_.seals = reg.get_counter("v6_stream_seals_total", {},
                               "Day seals applied across all shards.");
    m_.open_day = reg.get_gauge("v6_stream_open_day", {},
                                "Day currently accumulating.");
    m_.sealed_day = reg.get_gauge("v6_stream_sealed_day", {},
                                  "Epoch: last day sealed everywhere.");
    m_.epoch_lag = reg.get_gauge("v6_stream_epoch_lag_days", {},
                                 "open_day - sealed_day: how far the roll "
                                 "pipeline trails ingest.");
    m_.distinct_addresses =
        reg.get_gauge("v6_stream_distinct_addresses", {},
                      "Distinct /128s across all sealed days.");
    m_.distinct_projected =
        reg.get_gauge("v6_stream_distinct_projected", {},
                      "Distinct projected prefixes across all sealed days.");
    // Which batch-kernel dispatch level this process runs (the numeric
    // v6::simd::level value), labeled with its name; 0 = scalar (forced
    // via V6CLASS_FORCE_SCALAR or no AVX2), 2 = avx2.
    reg.get_gauge("v6class_simd_level",
                  {{"level", std::string(simd::level_name(simd::active_level()))}},
                  "Active SIMD dispatch level of the batch kernels.")
        .set(static_cast<std::int64_t>(simd::active_level()));
    if (!cfg_.metrics) return;
    // Sampled instrumentation: per-shard series and latency histograms.
    for (unsigned i = 0; i < cfg_.shards; ++i) {
        const obs::label_list shard{{"shard", std::to_string(i)}};
        m_.shard_records.push_back(reg.get_counter(
            "v6_stream_shard_records_total", shard,
            "Records accepted per shard (skew = max/min across shards)."));
        m_.queue_depth.push_back(
            reg.get_gauge("v6_stream_queue_depth", shard,
                          "Batches waiting in the shard queue."));
        m_.queue_high_water.push_back(
            reg.get_gauge("v6_stream_queue_high_water", shard,
                          "Deepest the shard queue has been."));
    }
    m_.seal_latency = reg.get_histogram(
        "v6_stream_seal_latency_seconds", obs::latency_buckets(), {},
        "Time to apply one day seal across every shard (exclusive state "
        "lock held).");
    m_.report_build = reg.get_histogram(
        "v6_stream_report_build_seconds", obs::latency_buckets(), {},
        "Time to recompute a day report (overlaps next-day ingest).");
}

void stream_engine::init_live() {
    // Domain-level (classification) series live in the v6class_*
    // namespace, infrastructure series in v6_stream_* — see DESIGN.md
    // "Observability". Each gets a ring history; classification series
    // also get a drift detector, timing series (detect = false) do not.
    obs::registry& reg = *metrics_;
    drift_events_ = reg.get_counter(
        "v6class_drift_events_total", {},
        "Drift alarms raised over the live derived series.");
    const auto add = [&](std::string name, const std::string& metric,
                         std::string help, obs::label_list labels = {},
                         bool detect = true) {
        // The tsdb label is the first label's value ("" when unlabeled)
        // — enough to tell the dense-class series apart.
        std::string label = labels.empty() ? std::string{} : labels[0].second;
        std::optional<obs::ewma_detector> detector;
        if (detect) detector.emplace(cfg_.drift);
        live_.emplace_back(std::move(name), help,
                           reg.get_dgauge(metric, std::move(labels), help),
                           cfg_.history, std::move(detector));
        live_.back().metric = metric;
        live_.back().label = std::move(label);
        return live_.size() - 1;
    };
    li_gamma1_ = add("gamma1@64", "v6class_gamma1_64",
                     "MRA count ratio gamma^1 at p=64 (n_65 / n_64): how "
                     "eagerly /64s split one level down.");
    li_gamma4_ = add("gamma4@60", "v6class_gamma4_60",
                     "MRA count ratio gamma^4 at p=60 (n_64 / n_60): /64s "
                     "per active /60.");
    li_gamma16_ = add("gamma16@48", "v6class_gamma16_48",
                      "MRA count ratio gamma^16 at p=48 (n_64 / n_48): /64s "
                      "per active /48 site.");
    li_stable_fraction_ =
        add("stable_fraction", "v6class_stable_fraction",
            "nd-stable share of the classified day's active addresses.");
    li_active_ = add("active", "v6class_active_addresses",
                     "Addresses active on the classified day.");
    li_hits_p50_ = add("hits_p50", "v6class_hits_p50",
                       "P2-estimated median of per-record hit counts.");
    li_hits_p99_ = add("hits_p99", "v6class_hits_p99",
                       "P2-estimated 99th percentile of per-record hit "
                       "counts.");
    li_dense_first_ = live_.size();
    for (const auto& [n, p] : cfg_.density_classes) {
        const std::string klass = std::to_string(n) + "@" + std::to_string(p);
        add("dense " + std::to_string(n) + "@/" + std::to_string(p),
            "v6class_dense_prefixes",
            "Prefixes meeting the " + klass + " density class.",
            {{"class", klass}});
    }
    li_est_first_ = live_.size();
    if (cfg_.sketches) {
        add("day_addrs_est", "v6class_day_distinct_addresses_estimate",
            "HLL estimate of the sealed day's distinct addresses.");
        add("day_48s_est", "v6class_day_distinct_48s_estimate",
            "HLL estimate of the sealed day's distinct /48 prefixes.");
        add("day_64s_est", "v6class_day_distinct_64s_estimate",
            "HLL estimate of the sealed day's distinct /64 prefixes.");
    }
    // Infrastructure introspection surfaced as a sparkline: how busy
    // the work pool's seats were between seals. A wall-clock timing
    // series, so it gets no drift detector.
    li_pool_util_ = add("pool util", "v6_par_pool_utilization",
                        "v6::par pool seat utilization between this seal "
                        "and the previous one (0..1).",
                        {}, /*detect=*/false);
    // Per-interval ingest IPC rides the same machinery, but only where
    // a hardware PMU exists — a permanently-zero series would just
    // waste a dashboard tile and tsdb space on software-only boxes.
    if (obs::pmu::available().hardware())
        li_pmu_ipc_ = add("ingest ipc", "v6class_pmu_ingest_ipc",
                          "Instructions per cycle inside shard.ingest_batch "
                          "scopes between this seal and the previous one.",
                          {}, /*detect=*/false);

    // Flight-recorder re-anchor: intern every live series in the store
    // and read back its newest stored day, so re-sealing already-stored
    // days (a replay over an existing --state-dir) appends nothing.
    if (cfg_.tsdb) {
        tsdb_event_cursor_ = events_->total();  // only future events persist
        std::int64_t resume_day = std::numeric_limits<std::int64_t>::min();
        for (live_series& s : live_) {
            s.tsdb_id = cfg_.tsdb->series_id(s.metric, s.label);
            if (const auto last = cfg_.tsdb->last_ts(s.metric, s.label)) {
                s.anchor = *last;
                resume_day = std::max(resume_day, *last);
            }
        }
        if (resume_day != std::numeric_limits<std::int64_t>::min())
            events_->log(
                obs::event_level::info, "tsdb",
                "tsdb resume: series history through day " +
                    std::to_string(resume_day),
                {{"last_day",
                  obs::event_field_number(static_cast<double>(resume_day))},
                 {"recovered_points",
                  obs::event_field_number(static_cast<double>(
                      cfg_.tsdb->recovered_points()))}});
    }
}

stream_engine::stream_engine(stream_config cfg)
    : cfg_(std::move(cfg)),
      projected_store_(cfg_.projected_length),
      summary_(cfg_.density_classes) {
    if (cfg_.shards == 0) cfg_.shards = 1;
    if (cfg_.batch_size == 0) cfg_.batch_size = 1;
    init_metrics();
    if (cfg_.events) {
        events_ = cfg_.events;
    } else {
        own_events_ = std::make_unique<obs::event_log>();
        events_ = own_events_.get();
    }
    init_live();
    if (cfg_.sketches) {
        shard_sketches_.reserve(cfg_.shards);
        for (unsigned i = 0; i < cfg_.shards; ++i)
            shard_sketches_.emplace_back(cfg_.hll_precision);
    }
    shards_.reserve(cfg_.shards);
    queues_.reserve(cfg_.shards);
    staging_.resize(cfg_.shards);
    drained_day_.assign(cfg_.shards, kNoDay);
    for (unsigned i = 0; i < cfg_.shards; ++i) {
        shards_.push_back(std::make_unique<stream_shard>());
        queues_.push_back(
            std::make_unique<bounded_queue<shard_message>>(cfg_.queue_capacity));
    }
    workers_.reserve(cfg_.shards);
    for (unsigned i = 0; i < cfg_.shards; ++i)
        workers_.emplace_back([this, i] { worker_loop(i); });
    roll_thread_ = std::thread([this] { roll_loop(); });
}

stream_engine::~stream_engine() { finish(); }

// --------------------------------------------------------------- pusher

void stream_engine::push(const stream_record& r) {
    std::unique_lock lock(push_mutex_);
    push_locked(r);
}

void stream_engine::push_block(const simd::record_block& block) {
    // One lock acquisition per block (up to kWireMaxBatch records), not
    // per record — the contention the vector path pays per datagram.
    std::unique_lock lock(push_mutex_);
    const std::uint64_t* his = block.addrs.hi();
    const std::uint64_t* los = block.addrs.lo();
    for (std::size_t i = 0; i < block.size(); ++i)
        push_locked(stream_record{block.day[i],
                                  address::from_pair(his[i], los[i]),
                                  block.hits[i]});
}

void stream_engine::push_locked(const stream_record& r) {
    m_.fed.inc();
    if (finished_) {
        m_.dropped.inc();
        return;
    }
    if (open_day_ == kNoDay) {
        open_day_ = r.day;
        m_.open_day.set(r.day);
    }
    if (r.day < open_day_) {
        // Sealed (or about-to-seal) days are immutable; accepting this
        // record would tear the epoch. Count it so operators can see
        // feed disorder beyond the tolerated batching slew.
        m_.late.inc();
        return;
    }
    if (r.day > open_day_) {
        // Day boundary: everything staged belongs to the finished day;
        // get it into the queues ahead of the seal markers.
        for (unsigned i = 0; i < cfg_.shards; ++i) flush_shard_locked(i);
        broadcast_seal_locked(open_day_);
        open_day_ = r.day;
        m_.open_day.set(r.day);
        // Lag is meaningful once sealing has started; both gauges are
        // atomics, so reading the roll thread's side here is safe.
        if (m_.seals.value() > 0)
            m_.epoch_lag.set(r.day - m_.sealed_day.value());
    }
    m_.records.inc();
    m_.hits.inc(r.hits);
    if (cfg_.sketches && ++quantile_tick_ >= cfg_.quantile_sample) {
        quantile_tick_ = 0;
        const auto h = static_cast<double>(r.hits);
        hits_p50_.observe(h);
        hits_p99_.observe(h);
    }
    const unsigned shard = shard_of(r.addr);
    staging_[shard].push_back(r);
    if (staging_[shard].size() >= cfg_.batch_size) flush_shard_locked(shard);
}

void stream_engine::flush() {
    std::unique_lock lock(push_mutex_);
    if (finished_) return;
    for (unsigned i = 0; i < cfg_.shards; ++i) flush_shard_locked(i);
}

void stream_engine::flush_shard_locked(unsigned shard) {
    if (staging_[shard].empty()) return;
    shard_message msg;
    msg.k = shard_message::kind::batch;
    msg.batch = std::move(staging_[shard]);
    staging_[shard] = {};
    if (obs::tracer::enabled()) {
        // Span context rides the batch: the shard worker adopts it and
        // accounts the queue dwell as a queue_wait span.
        msg.ctx = obs::tracer::current();
        msg.enqueue_ns = obs::tracer::now_ns();
    }
    m_.batches.inc();
    // Per-shard counting happens here, not per push: one fetch_add per
    // batch keeps the counter exact at batch granularity while costing
    // the hot path nothing.
    if (!m_.shard_records.empty())
        m_.shard_records[shard].inc(msg.batch.size());
    queues_[shard]->push(std::move(msg));  // blocks when full: backpressure
    if (cfg_.metrics) {
        // Sampled after the (possibly blocking) push: a full queue shows
        // as depth == capacity, which is the backpressure signal.
        const auto depth = static_cast<std::int64_t>(queues_[shard]->size());
        m_.queue_depth[shard].set(depth);
        m_.queue_high_water[shard].max_of(depth);
    }
}

void stream_engine::broadcast_seal_locked(int day) {
    if (cfg_.sketches) {
        // Publish the quantile snapshots the roll thread will fold into
        // this seal's live series (it cannot read the estimators
        // directly; see the member comment).
        hits_p50_pub_.store(hits_p50_.value(), std::memory_order_release);
        hits_p99_pub_.store(hits_p99_.value(), std::memory_order_release);
        if (cfg_.federate) {
            // The aggregator receives full marker state, not just the
            // scalar value; copy the estimators at the day boundary so
            // the roll thread can snapshot them without push_mutex_.
            std::lock_guard snap(p2_snap_mutex_);
            p2_snap_p50_ = hits_p50_;
            p2_snap_p99_ = hits_p99_;
        }
    }
    for (unsigned i = 0; i < cfg_.shards; ++i) {
        shard_message msg;
        msg.k = shard_message::kind::seal;
        msg.day = day;
        queues_[i]->push(std::move(msg));
    }
    {
        std::lock_guard roll(roll_mutex_);
        seal_days_.push_back(day);
    }
    roll_cv_.notify_all();
}

void stream_engine::finish() {
    // Serializes finishers (e.g. an explicit finish and the destructor).
    std::lock_guard finishing(finish_mutex_);
    {
        std::unique_lock lock(push_mutex_);
        if (finished_) {
            if (workers_.empty()) return;  // already finished and joined
        } else {
            finished_ = true;
            for (unsigned i = 0; i < cfg_.shards; ++i) flush_shard_locked(i);
            if (open_day_ != kNoDay) broadcast_seal_locked(open_day_);
        }
    }
    {
        std::lock_guard roll(roll_mutex_);
        stopping_ = true;
    }
    roll_cv_.notify_all();
    for (auto& q : queues_) q->close();
    for (auto& w : workers_) w.join();
    workers_.clear();
    if (roll_thread_.joinable()) roll_thread_.join();
}

// -------------------------------------------------------------- workers

void stream_engine::worker_loop(unsigned shard) {
    const std::string tname = "stream-worker-" + std::to_string(shard);
    obs::tracer::set_thread_name(tname);
    obs::profiler::register_thread(tname);
    while (auto msg = queues_[shard]->pop()) {
        if (cfg_.metrics)
            m_.queue_depth[shard].set(
                static_cast<std::int64_t>(queues_[shard]->size()));
        if (msg->k == shard_message::kind::batch) {
            if (msg->enqueue_ns != 0) {
                // The batch's dwell time in the shard queue, parented to
                // the pusher's span that enqueued it.
                const std::uint64_t now = obs::tracer::now_ns();
                obs::tracer::emit(
                    "shard.queue_wait", obs::span_kind::queue_wait,
                    {msg->ctx.trace_id, obs::tracer::next_id()},
                    msg->ctx.span_id, msg->enqueue_ns,
                    now > msg->enqueue_ns ? now - msg->enqueue_ns : 0);
            }
            obs::context_scope adopt(msg->ctx);
            obs::span batch_span("shard.ingest_batch");
            obs::pmu_scope batch_pmu("shard.ingest_batch");
            if (cfg_.sketches) {
                // The day sketches ride the worker, not the pusher: the
                // hashing parallelizes across shards and stays off the
                // feed thread (bench/micro_sketch prices this). One
                // FNV-1a walk over the 16 bytes, snapshotted at the /48
                // and /64 boundaries, yields all three sketch hashes
                // without masked-address copies.
                day_sketches& sk = shard_sketches_[shard];
                for (const stream_record& r : msg->batch) {
                    const auto& b = r.addr.bytes();
                    std::uint64_t h = 1469598103934665603ull;
                    std::size_t i = 0;
                    for (; i < 6; ++i) h = (h ^ b[i]) * 1099511628211ull;
                    sk.p48s.add(h);
                    for (; i < 8; ++i) h = (h ^ b[i]) * 1099511628211ull;
                    sk.p64s.add(h);
                    for (; i < 16; ++i) h = (h ^ b[i]) * 1099511628211ull;
                    sk.addresses.add(h);
                }
            }
            for (const stream_record& r : msg->batch) shards_[shard]->buffer(r);
            continue;
        }
        // Seal marker: prepare the fully-staged day here, in parallel
        // with the other shards, then hand it to the roll thread and wait
        // until it has been applied everywhere before touching the next
        // day's batches. prepare_seal only reads sealed state, which the
        // roll thread alone writes: the roll_mutex_ handshake orders this
        // worker's staged and prepared writes before the roll thread's
        // apply_seal, and the apply's writes before this worker's next
        // buffer() and prepare_seal().
        {
            obs::span prepare_span("shard.prepare_seal", obs::span_kind::merge);
            obs::pmu_scope prepare_pmu("shard.prepare_seal");
            shards_[shard]->prepare_seal();
        }
        std::unique_lock lock(roll_mutex_);
        drained_day_[shard] = msg->day;
        roll_cv_.notify_all();
        roll_cv_.wait(lock, [&] { return applied_day_ >= msg->day; });
    }
}

// ---------------------------------------------------------- roll thread

void stream_engine::roll_loop() {
    obs::tracer::set_thread_name("stream-roll");
    obs::profiler::register_thread("stream-roll");
    for (;;) {
        int day = kNoDay;
        {
            std::unique_lock lock(roll_mutex_);
            roll_cv_.wait(lock, [&] { return stopping_ || !seal_days_.empty(); });
            if (seal_days_.empty()) {  // stopping, all seals applied
                lock.unlock();
                std::lock_guard done(reports_mutex_);
                rolls_done_ = true;
                report_cv_.notify_all();
                return;
            }
            day = seal_days_.front();
            roll_cv_.wait(lock, [&] {
                return std::all_of(drained_day_.begin(), drained_day_.end(),
                                   [&](int d) { return d >= day; });
            });
            seal_days_.pop_front();
        }
        {
            // The only writer of sealed state; readers (queries, the
            // report build below) hold the lock shared. The histogram
            // covers exactly the exclusive section: how long ingest of
            // already-drained shards can stall behind a seal. The shard
            // workers already sorted their days and found the first
            // sightings (prepare_seal), so only the writes remain here.
            obs::trace_scope span("seal_day", m_.seal_latency);
            std::unique_lock state(state_mutex_);
            // Shard state is disjoint: the shards apply in parallel.
            par::run_indexed(shards_.size(), [&](std::size_t i) {
                obs::span shard_span("shard.apply_seal", obs::span_kind::merge);
                shards_[i]->apply_seal(day);
            });
            // The projected (/64) store is engine-level (see engine.h);
            // each shard's sorted day set feeds it in turn (recording a
            // prefix twice in one day is idempotent).
            for (const auto& s : shards_)
                projected_store_.record_day(day, s->series().day(day));
            {
                // The shards partition /128, so their first-seen lists
                // are disjoint sorted parts of the day's fresh set.
                obs::span fold_span("summary_fold", obs::span_kind::merge);
                std::vector<const std::vector<address>*> fresh;
                fresh.reserve(shards_.size());
                for (const auto& s : shards_) fresh.push_back(&s->fresh());
                summary_.fold(fresh);
            }
            if (cfg_.sketches) last_estimates_ = merge_day_sketches();
            sealed_day_ = day;
            std::size_t distinct = 0;
            for (const auto& s : shards_) distinct += s->distinct_addresses();
            m_.distinct_addresses.set(static_cast<std::int64_t>(distinct));
            m_.distinct_projected.set(
                static_cast<std::int64_t>(projected_store_.distinct_count()));
        }
        m_.sealed_day.set(day);
        m_.seals.inc();
        m_.epoch_lag.set(std::max<std::int64_t>(0, m_.open_day.value() - day));
        {
            std::lock_guard lock(roll_mutex_);
            applied_day_ = day;
        }
        roll_cv_.notify_all();  // release the parked workers: ingest resumes
        // Asynchronous roll-up: the expensive recompute overlaps ingest
        // of the next day (workers only park again at the *next* seal,
        // which cannot be applied until this loop comes round).
        day_report report;
        {
            obs::trace_scope span("build_report", m_.report_build);
            report = build_report(day);
        }
        // Pool seat utilization over the inter-seal interval:
        // delta(busy time) spread over delta(wall time) x seat count.
        // Roll-thread-only state, so plain members suffice.
        {
            const par::pool_stats ps = par::stats();
            const std::uint64_t wall = obs::tracer::now_ns();
            const unsigned seats = ps.workers + 1;  // callers hold a seat
            if (last_util_wall_ns_ != 0 && wall > last_util_wall_ns_) {
                const double busy =
                    static_cast<double>(ps.busy_ns - last_busy_ns_);
                const double span_ns =
                    static_cast<double>(wall - last_util_wall_ns_) * seats;
                report.pool_utilization =
                    std::min(1.0, span_ns > 0 ? busy / span_ns : 0.0);
            }
            last_busy_ns_ = ps.busy_ns;
            last_util_wall_ns_ = wall;
        }
        // Ingest IPC over the same interval: delta(instructions) /
        // delta(cycles) of the shard.ingest_batch site. Roll-thread-only
        // baselines, like the pool-utilization ones above.
        {
            const obs::pmu::site_stats ingest =
                obs::pmu::site_totals("shard.ingest_batch");
            if (ingest.has(obs::pmu::counter::cycles) &&
                ingest.has(obs::pmu::counter::instructions)) {
                const std::uint64_t cyc = ingest[obs::pmu::counter::cycles];
                const std::uint64_t ins =
                    ingest[obs::pmu::counter::instructions];
                if (cyc > pmu_last_cycles_)
                    report.ingest_ipc =
                        static_cast<double>(ins - pmu_last_instr_) /
                        static_cast<double>(cyc - pmu_last_cycles_);
                pmu_last_cycles_ = cyc;
                pmu_last_instr_ = ins;
            }
        }
        if (cfg_.metrics) obs::update_process_gauges(*metrics_);
        update_live(report);
        {
            std::lock_guard lock(reports_mutex_);
            reports_.push_back(std::move(report));
        }
        report_cv_.notify_all();
    }
}

day_report stream_engine::build_report(int day) const {
    std::shared_lock state(state_mutex_);
    day_report report;
    report.day = day;
    report.ref_day = day - cfg_.window.window_fwd;
    // Per-shard classification fans out through the work pool; the sums
    // below are order-independent, so the totals match the serial path.
    struct shard_tally {
        std::uint64_t stable = 0;
        std::uint64_t not_stable = 0;
        std::uint64_t distinct = 0;
    };
    const std::vector<shard_tally> tallies =
        par::map_indexed<shard_tally>(shards_.size(), [&](std::size_t i) {
            const stability_split split = shards_[i]->classify_day(
                report.ref_day, cfg_.stability_n, cfg_.window);
            return shard_tally{split.stable.size(), split.not_stable.size(),
                               shards_[i]->distinct_addresses()};
        });
    for (const shard_tally& t : tallies) {
        report.stable += t.stable;
        report.not_stable += t.not_stable;
        report.distinct_addresses += t.distinct;
    }
    report.distinct_projected = projected_store_.distinct_count();
    report.active = report.stable + report.not_stable;
    report.density = summary_.density_table(cfg_.density_classes);
    // The live derived series: MRA ratios around the /64 boundary, off
    // the same lifetime summary the density rows come from.
    const mra_series mra = summary_.mra();
    report.gamma1 = mra.ratio(64, 1);
    report.gamma4 = mra.ratio(60, 4);
    report.gamma16 = mra.ratio(48, 16);
    report.stable_fraction =
        report.active ? static_cast<double>(report.stable) /
                            static_cast<double>(report.active)
                      : 0.0;
    report.est_day_addresses = last_estimates_.addresses;
    report.est_day_48s = last_estimates_.p48s;
    report.est_day_64s = last_estimates_.p64s;
    return report;
}

stream_engine::day_estimates stream_engine::merge_day_sketches() {
    // Roll thread, exclusive section: every worker is parked at this
    // day's seal marker, so their sketch sets are quiescent (the
    // roll_mutex_ handshake ordered their writes before ours) and the
    // reset below is published to them the same way.
    obs::hyperloglog addresses(cfg_.hll_precision);
    obs::hyperloglog p48s(cfg_.hll_precision);
    obs::hyperloglog p64s(cfg_.hll_precision);
    for (day_sketches& sk : shard_sketches_) {
        addresses.merge(sk.addresses);
        p48s.merge(sk.p48s);
        p64s.merge(sk.p64s);
        sk.addresses.reset();
        sk.p48s.reset();
        sk.p64s.reset();
    }
    const day_estimates est{addresses.estimate(), p48s.estimate(),
                            p64s.estimate()};
    if (cfg_.federate) {
        // Keep the merged registers: the push hook ships them so the
        // aggregator's cross-node union is exact, not re-estimated.
        fed_day_addresses_ = std::move(addresses);
        fed_day_48s_ = std::move(p48s);
        fed_day_64s_ = std::move(p64s);
    }
    return est;
}

void stream_engine::update_live(const day_report& report) {
    // Snapshot of the live series taken under live_mutex_, consumed by
    // the alert evaluation and the tsdb flush below *after* the lock is
    // released: evaluate() takes the alert engine's mutex, and the
    // wall-clock tick path (tools/v6stream) takes that mutex before
    // sampling the engine — holding live_mutex_ across evaluate() would
    // invert the order and deadlock a concurrent seal and tick.
    struct sample_row {
        std::string metric;
        std::string label;
        double value;
        std::uint32_t tsdb_id;
        std::int64_t anchor;
    };
    std::vector<sample_row> sampled;
    {
    std::lock_guard lock(live_mutex_);
    const auto feed = [&](std::size_t idx, double v) {
        live_series& s = live_[idx];
        s.history.push(v);
        s.gauge.set(v);
        if (!s.detector) return;
        const std::optional<obs::ewma_detector::alarm> a = s.detector->update(v);
        s.alarmed = a.has_value();
        if (a) {
            drift_events_.inc();
            events_->log(
                obs::event_level::warn, "drift",
                s.name + " shifted from " + std::to_string(a->mean) + " to " +
                    std::to_string(a->value),
                {{"series", obs::event_field_string(s.name)},
                 {"day", obs::event_field_number(report.day)},
                 {"value", obs::event_field_number(a->value)},
                 {"mean", obs::event_field_number(a->mean)},
                 {"sigma", obs::event_field_number(a->sigma)},
                 {"z", obs::event_field_number(a->z)}});
        }
    };
    feed(li_gamma1_, report.gamma1);
    feed(li_gamma4_, report.gamma4);
    feed(li_gamma16_, report.gamma16);
    feed(li_stable_fraction_, report.stable_fraction);
    feed(li_active_, static_cast<double>(report.active));
    feed(li_hits_p50_, hits_p50_pub_.load(std::memory_order_acquire));
    feed(li_hits_p99_, hits_p99_pub_.load(std::memory_order_acquire));
    for (std::size_t i = 0; i < report.density.size(); ++i)
        feed(li_dense_first_ + i,
             static_cast<double>(report.density[i].dense_prefix_count));
    if (cfg_.sketches) {
        feed(li_est_first_ + 0, report.est_day_addresses);
        feed(li_est_first_ + 1, report.est_day_48s);
        feed(li_est_first_ + 2, report.est_day_64s);
    }
    feed(li_pool_util_, report.pool_utilization);
    if (li_pmu_ipc_ != SIZE_MAX) feed(li_pmu_ipc_, report.ingest_ipc);

    if (cfg_.alerts || cfg_.tsdb || cfg_.federate) {
        sampled.reserve(live_.size());
        for (const live_series& s : live_)
            if (s.history.size() > 0)
                sampled.push_back({s.metric, s.label, s.history.back(),
                                   s.tsdb_id, s.anchor});
    }
    }  // live_mutex_ released: alert + tsdb work runs on the snapshot

    // Alert rules see this seal's values via the snapshot — evaluate()
    // has its own lock, acquired here without live_mutex_ held.
    if (cfg_.alerts) {
        const auto sample = [&sampled](const std::string& series,
                                       const std::string& label)
            -> std::optional<double> {
            for (const sample_row& s : sampled)
                if (s.metric == series && s.label == label) return s.value;
            return std::nullopt;
        };
        cfg_.alerts->evaluate(sample, report.day);
    }

    // Flight-recorder flush: one point per live series at ts =
    // report.day (skipped below each series' restart anchor), every
    // event logged since the last seal (drift alarms and alert
    // transitions included — both were raised above), one commit.
    // tsdb_event_cursor_ is roll-thread-only state; the store has its
    // own mutex.
    if (cfg_.tsdb) {
        for (const sample_row& s : sampled) {
            if (report.day <= s.anchor) continue;
            cfg_.tsdb->append(s.tsdb_id, report.day, s.value);
        }
        for (const obs::event& e : events_->since(tsdb_event_cursor_)) {
            cfg_.tsdb->append_event(e);
            tsdb_event_cursor_ = e.seq;
        }
        cfg_.tsdb->commit();
    }

    // Federation push: the same sampled rows the tsdb records (ts = the
    // sealed day), plus copies of the merged day sketches, handed to
    // the hook with no engine lock held.
    if (cfg_.federate) {
        obs::federate::seal_snapshot snap;
        snap.day = report.day;
        snap.series.reserve(sampled.size());
        for (const sample_row& s : sampled)
            snap.series.push_back({s.metric, s.label, report.day, s.value});
        if (cfg_.sketches) {
            snap.has_sketches = true;
            snap.addresses = fed_day_addresses_;
            snap.p48s = fed_day_48s_;
            snap.p64s = fed_day_64s_;
            std::lock_guard p2(p2_snap_mutex_);
            snap.hits_p50 = p2_snap_p50_;
            snap.hits_p99 = p2_snap_p99_;
        }
        cfg_.federate(snap);
    }
}

live_view stream_engine::live(std::size_t events_n) const {
    live_view view;
    view.epoch = sealed_day();
    {
        std::lock_guard lock(live_mutex_);
        view.series.reserve(live_.size());
        for (const live_series& s : live_) {
            live_series_view v;
            v.name = s.name;
            v.help = s.help;
            v.metric = s.metric;
            v.label = s.label;
            v.current = s.history.size() ? s.history.back() : 0.0;
            v.alarmed = s.alarmed;
            v.history = s.history.values();
            view.series.push_back(std::move(v));
        }
    }
    view.events = events_->recent(events_n);
    return view;
}

// -------------------------------------------------------------- queries

stream_stats stream_engine::stats() const {
    stream_stats out;
    {
        // The counters are registry atomics, but reading them under
        // push_mutex_ keeps the view exact with respect to open_day_
        // (no half-applied push).
        std::unique_lock lock(push_mutex_);
        out.fed = m_.fed.value();
        out.records = m_.records.value();
        out.hits = m_.hits.value();
        out.late_dropped = m_.late.value();
        out.dropped = m_.dropped.value();
        out.batches = m_.batches.value();
        out.open_day = open_day_;
    }
    std::shared_lock state(state_mutex_);
    out.sealed_day = sealed_day_;
    for (const auto& s : shards_) out.distinct_addresses += s->distinct_addresses();
    out.distinct_projected = projected_store_.distinct_count();
    return out;
}

int stream_engine::sealed_day() const {
    std::shared_lock state(state_mutex_);
    return sealed_day_;
}

stream_snapshot stream_engine::snapshot() const {
    stream_snapshot out;
    {
        std::unique_lock lock(push_mutex_);
        out.records = m_.records.value();
        out.hits = m_.hits.value();
        out.late_dropped = m_.late.value();
    }
    std::shared_lock state(state_mutex_);
    out.epoch = sealed_day_;
    std::vector<std::uint64_t> merged_spectrum(cfg_.spectrum_max + 1, 0);
    for (const auto& s : shards_) {
        out.distinct_addresses += s->distinct_addresses();
        const auto spectrum = s->spectrum(cfg_.spectrum_max);
        for (std::size_t n = 0; n < spectrum.size(); ++n)
            merged_spectrum[n] += spectrum[n];
    }
    out.distinct_projected = projected_store_.distinct_count();
    out.spectrum = std::move(merged_spectrum);
    out.density = summary_.density_table(cfg_.density_classes);
    return out;
}

stability_split stream_engine::classify_day(int ref_day, unsigned n) const {
    std::shared_lock state(state_mutex_);
    // Shards are disjoint and sealed state is read-locked: classify them
    // concurrently, then merge in shard order (the final sort makes the
    // result independent of shard order anyway).
    const std::vector<stability_split> splits =
        par::map_indexed<stability_split>(shards_.size(), [&](std::size_t i) {
            return shards_[i]->classify_day(ref_day, n, cfg_.window);
        });
    obs::span merge_span("merge_splits", obs::span_kind::merge);
    stability_split merged;
    for (const stability_split& split : splits) {
        merged.stable.insert(merged.stable.end(), split.stable.begin(),
                             split.stable.end());
        merged.not_stable.insert(merged.not_stable.end(), split.not_stable.begin(),
                                 split.not_stable.end());
    }
    std::sort(merged.stable.begin(), merged.stable.end());
    std::sort(merged.not_stable.begin(), merged.not_stable.end());
    return merged;
}

std::vector<std::uint64_t> stream_engine::stability_spectrum(unsigned max_n) const {
    std::shared_lock state(state_mutex_);
    std::vector<std::uint64_t> merged(max_n + 1, 0);
    for (const auto& s : shards_) {
        const auto spectrum = s->spectrum(max_n);
        for (std::size_t n = 0; n < spectrum.size(); ++n) merged[n] += spectrum[n];
    }
    return merged;
}

std::vector<density_row> stream_engine::density_table(
    const std::vector<std::pair<std::uint64_t, unsigned>>& classes) const {
    std::shared_lock state(state_mutex_);
    return summary_.density_table(classes);
}

std::vector<address> stream_engine::distinct_addresses() const {
    std::shared_lock state(state_mutex_);
    return summary_.addresses();
}

mra_series stream_engine::mra() const {
    std::shared_lock state(state_mutex_);
    return summary_.mra();
}

std::vector<day_report> stream_engine::reports() const {
    std::lock_guard lock(reports_mutex_);
    return {reports_.begin(), reports_.end()};
}

std::optional<day_report> stream_engine::latest_report() const {
    std::lock_guard lock(reports_mutex_);
    if (reports_.empty()) return std::nullopt;
    return reports_.back();
}

std::optional<day_report> stream_engine::wait_for_report(int day) const {
    std::unique_lock lock(reports_mutex_);
    for (;;) {
        for (const day_report& r : reports_)
            if (r.day == day) return r;
        if (rolls_done_) return std::nullopt;
        report_cv_.wait(lock);
    }
}

}  // namespace v6
