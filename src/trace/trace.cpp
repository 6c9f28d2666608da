#include "trace/trace.hpp"

#include <algorithm>
#include <map>

#include "race/domain.hpp"
#include "util/assert.hpp"

namespace pasched::trace {

using sim::Duration;
using sim::Time;

Tracer::Tracer(kern::NodeId node_filter) : node_filter_(node_filter) {}

void Tracer::attach(kern::Kernel& kernel) {
  kernel.set_observer(this);
  const auto node = static_cast<std::size_t>(kernel.node_id());
  if (open_.size() <= node) open_.resize(node + 1);
  open_[node].resize(static_cast<std::size_t>(kernel.ncpus()));
  if (kernels_.size() <= node) kernels_.resize(node + 1, nullptr);
  kernels_[node] = &kernel;
  // Presize the per-node recording state so shards never grow the vectors
  // concurrently during a partitioned run.
  (void)per_node(kernel.node_id());
  if (elog_ != nullptr)
    elog_->bind_node(kernel.node_id(), kernel.context().shard);
}

race::Domain Tracer::owner_of(kern::NodeId node) const {
  const auto n = static_cast<std::size_t>(node);
  return node >= 0 && n < kernels_.size() && kernels_[n] != nullptr
             ? kernels_[n]->context().shard
             : race::kUnbound;
}

Tracer::PerNode& Tracer::per_node(kern::NodeId node) {
  // The per-node recording state follows the same lock-free contract as the
  // event log's buckets: only the shard that owns the node (or the free
  // context — attach/enable/clear) may touch it.
  PASCHED_ASSERT_DOMAIN(owner_of(node), "trace.Tracer.node", node, "per_node");
  const auto n = static_cast<std::size_t>(node < 0 ? 0 : node);
  if (per_node_.size() <= n) per_node_.resize(n + 1);
  if (!per_node_[n]) per_node_[n] = std::make_unique<PerNode>();
  return *per_node_[n];
}

void Tracer::push_interval(const Interval& iv) {
  per_node(iv.node).intervals.push_back(iv);
  dirty_.store(true, std::memory_order_release);
}

const std::vector<Interval>& Tracer::intervals() const {
  if (dirty_.load(std::memory_order_acquire)) {
    merged_.clear();
    std::size_t total = 0;
    for (const auto& pn : per_node_)
      if (pn) total += pn->intervals.size();
    merged_.reserve(total);
    for (const auto& pn : per_node_)
      if (pn)
        merged_.insert(merged_.end(), pn->intervals.begin(),
                       pn->intervals.end());
    dirty_.store(false, std::memory_order_release);
  }
  return merged_;
}

TraceCounts Tracer::counts() const {
  TraceCounts total;
  for (const auto& pn : per_node_) {
    if (!pn) continue;
    total.dispatches += pn->counts.dispatches;
    total.preemptions += pn->counts.preemptions;
    total.ticks += pn->counts.ticks;
    total.ipis += pn->counts.ipis;
  }
  return total;
}

int Tracer::ready_depth(kern::NodeId node) const {
  const auto n = static_cast<std::size_t>(node);
  if (n >= kernels_.size() || kernels_[n] == nullptr) return 0;
  return kernels_[n]->ready_count();
}

void Tracer::log_event(EventKind kind, Time t, kern::NodeId node,
                       kern::CpuId cpu, const kern::Thread* th) {
  if (elog_ == nullptr) return;
  Event e;
  e.t = t;
  e.kind = kind;
  e.node = node;
  e.cpu = cpu;
  e.ready_depth = ready_depth(node);
  if (th != nullptr) {
    e.tid = th->tid();
    e.cls = th->cls();
    e.priority = th->effective_priority();
    e.thread = th;
  }
  elog_->record(e);
}

Tracer::Open& Tracer::slot(kern::NodeId node, kern::CpuId cpu) {
  PASCHED_ASSERT_DOMAIN(owner_of(node), "trace.Tracer.slot", node, "slot");
  const auto n = static_cast<std::size_t>(node);
  if (open_.size() <= n) open_.resize(n + 1);
  auto& cpus = open_[n];
  if (cpus.size() <= static_cast<std::size_t>(cpu))
    cpus.resize(static_cast<std::size_t>(cpu) + 1);
  return cpus[static_cast<std::size_t>(cpu)];
}

void Tracer::close_slot(Open& o, Time t, kern::NodeId node, kern::CpuId cpu) {
  if (o.thread != nullptr && enabled_ && t > o.since) {
    push_interval(Interval{o.since, t, node, cpu, o.thread});
  }
  o.thread = nullptr;
}

void Tracer::enable(Time now) {
  enabled_ = true;
  // Occupants at enable time start their interval now.
  for (auto& cpus : open_)
    for (auto& o : cpus)
      if (o.thread != nullptr) o.since = now;
}

void Tracer::disable(Time now) {
  for (std::size_t n = 0; n < open_.size(); ++n) {
    for (std::size_t c = 0; c < open_[n].size(); ++c) {
      Open& o = open_[n][c];
      if (o.thread != nullptr && enabled_ && now > o.since) {
        push_interval(Interval{o.since, now, static_cast<int>(n),
                               static_cast<int>(c), o.thread});
        o.since = now;  // remains the occupant; interval restarts if re-enabled
      }
    }
  }
  enabled_ = false;
}

void Tracer::clear() {
  for (auto& pn : per_node_)
    if (pn) pn->intervals.clear();
  merged_.clear();
  dirty_.store(false, std::memory_order_release);
}

void Tracer::on_dispatch(Time t, kern::NodeId node, kern::CpuId cpu,
                         const kern::Thread& th) {
  ++per_node(node).counts.dispatches;
  if (node_filter_ >= 0 && node != node_filter_) return;
  log_event(EventKind::Dispatch, t, node, cpu, &th);
  Open& o = slot(node, cpu);
  close_slot(o, t, node, cpu);
  o.thread = &th;
  o.since = t;
}

void Tracer::on_preempt(Time t, kern::NodeId node, kern::CpuId cpu,
                        const kern::Thread& th) {
  ++per_node(node).counts.preemptions;
  if (node_filter_ >= 0 && node != node_filter_) return;
  log_event(EventKind::Preempt, t, node, cpu, &th);
}

void Tracer::on_state(Time t, kern::NodeId node, const kern::Thread& th,
                      kern::ThreadState to) {
  if (node_filter_ >= 0 && node != node_filter_) return;
  switch (to) {
    case kern::ThreadState::Ready:
      log_event(EventKind::Ready, t, node, kern::kNoCpu, &th);
      break;
    case kern::ThreadState::Blocked:
      log_event(EventKind::Block, t, node, kern::kNoCpu, &th);
      break;
    case kern::ThreadState::Done:
      log_event(EventKind::Exit, t, node, kern::kNoCpu, &th);
      break;
    case kern::ThreadState::Running:
      break;  // covered by on_dispatch
  }
}

void Tracer::on_tick(Time /*t*/, kern::NodeId node, kern::CpuId /*cpu*/) {
  ++per_node(node).counts.ticks;
}

void Tracer::on_ipi(Time /*t*/, kern::NodeId node, kern::CpuId /*cpu*/) {
  ++per_node(node).counts.ipis;
}

void Tracer::on_idle(Time t, kern::NodeId node, kern::CpuId cpu) {
  if (node_filter_ >= 0 && node != node_filter_) return;
  log_event(EventKind::Idle, t, node, cpu, nullptr);
  Open& o = slot(node, cpu);
  close_slot(o, t, node, cpu);
}

std::vector<Attribution> attribute(const std::vector<Interval>& intervals,
                                   kern::NodeId node, Time t0, Time t1,
                                   bool exclude_app) {
  PASCHED_EXPECTS(t1 >= t0);
  // Aggregate by thread name so the same daemon on multiple traced nodes
  // shows up once (with its cluster-wide CPU time in the window).
  std::map<std::pair<std::string, kern::ThreadClass>, Duration> acc;
  for (const Interval& iv : intervals) {
    if (node >= 0 && iv.node != node) continue;
    const Time b = std::max(iv.begin, t0);
    const Time e = std::min(iv.end, t1);
    if (e <= b) continue;
    if (exclude_app && iv.thread->cls() == kern::ThreadClass::AppTask)
      continue;
    acc[{iv.thread->name(), iv.thread->cls()}] += e - b;
  }
  std::vector<Attribution> out;
  out.reserve(acc.size());
  for (const auto& [key, d] : acc)
    out.push_back(Attribution{key.first, key.second, d});
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.cpu_time > b.cpu_time;
  });
  return out;
}

double all_cpus_app_fraction(const std::vector<Interval>& intervals,
                             kern::NodeId node, int ncpus, Time t0, Time t1) {
  PASCHED_EXPECTS(t1 > t0);
  PASCHED_EXPECTS(ncpus > 0);
  // Sweep: +1 when a CPU starts running app work, -1 when it stops.
  std::vector<std::pair<Time, int>> edges;
  for (const Interval& iv : intervals) {
    if (iv.node != node) continue;
    if (iv.thread->cls() != kern::ThreadClass::AppTask) continue;
    const Time b = std::max(iv.begin, t0);
    const Time e = std::min(iv.end, t1);
    if (e <= b) continue;
    edges.emplace_back(b, +1);
    edges.emplace_back(e, -1);
  }
  std::sort(edges.begin(), edges.end());
  Duration green = Duration::zero();
  int depth = 0;
  Time last = t0;
  for (const auto& [t, d] : edges) {
    if (depth >= ncpus) green += t - last;
    depth += d;
    last = t;
  }
  if (depth >= ncpus) green += t1 - last;
  return static_cast<double>(green.count()) /
         static_cast<double>((t1 - t0).count());
}

}  // namespace pasched::trace
