#include "net/link.hpp"

#include <utility>

#include "net/node.hpp"
#include "util/assert.hpp"

namespace pdos {

Link::Link(Simulator& sim, std::string name, BitRate rate, Time delay,
           std::unique_ptr<QueueDiscipline> queue, PacketHandler* downstream,
           Bytes mean_packet_bytes)
    : Link(sim, std::move(name), rate, delay, queue.get(), downstream,
           mean_packet_bytes) {
  owned_queue_ = std::move(queue);
}

Link::Link(Simulator& sim, std::string name, BitRate rate, Time delay,
           QueueDiscipline* queue, PacketHandler* downstream,
           Bytes mean_packet_bytes)
    : sim_(sim),
      name_(std::move(name)),
      rate_(rate),
      delay_(delay),
      queue_(queue),
      downstream_(downstream),
      pipe_(sim.memory()),
      arrival_taps_(sim.memory()),
      departure_taps_(sim.memory()),
      chain_cache_(sim.memory()) {
  PDOS_REQUIRE(rate_ > 0.0, "Link: rate must be positive");
  PDOS_REQUIRE(delay_ >= 0.0, "Link: delay must be non-negative");
  PDOS_REQUIRE(queue_ != nullptr, "Link: queue must be non-null");
  PDOS_REQUIRE(downstream_ != nullptr, "Link: downstream must be non-null");
  queue_->bind(&sim_.scheduler(), rate_, mean_packet_bytes);
}

Link::Link(Simulator& sim, std::string name, BitRate rate, Time delay,
           PacketHandler* downstream, Bytes /*mean_packet_bytes*/)
    : sim_(sim),
      name_(std::move(name)),
      rate_(rate),
      delay_(delay),
      queue_(nullptr),
      downstream_(downstream),
      pipe_(sim.memory()),
      arrival_taps_(sim.memory()),
      departure_taps_(sim.memory()),
      chain_cache_(sim.memory()) {
  PDOS_REQUIRE(rate_ > 0.0, "Link: rate must be positive");
  PDOS_REQUIRE(delay_ >= 0.0, "Link: delay must be non-negative");
  PDOS_REQUIRE(downstream_ != nullptr, "Link: downstream must be non-null");
}

const QueueDiscipline& Link::queue() const {
  PDOS_REQUIRE(queue_ != nullptr, "Link: express lane has no queue");
  return *queue_;
}

QueueDiscipline& Link::queue() {
  PDOS_REQUIRE(queue_ != nullptr, "Link: express lane has no queue");
  return *queue_;
}

void Link::add_arrival_tap(PacketTap tap) {
  PDOS_REQUIRE(queue_ != nullptr, "Link: cannot tap an express lane");
  arrival_taps_.push_back(std::move(tap));
  tapped_ = true;
}

void Link::add_departure_tap(PacketTap tap) {
  PDOS_REQUIRE(queue_ != nullptr, "Link: cannot tap an express lane");
  departure_taps_.push_back(std::move(tap));
  tapped_ = true;
  lazy_ = false;  // the tap must observe departures at their exact instants
}

void Link::handle(Packet pkt) {
  if (queue_ == nullptr) {
    // Express lane: unconditional admission, serialization chained off the
    // previous completion. No queue object, no service event, no drop.
    inject_at(std::move(pkt), sim_.now());
    return;
  }
  // Replay services completed STRICTLY before this arrival before offering
  // it to the queue, so the occupancy (and RED's average) the packet is
  // judged against is exactly the eager one. A boundary tied with the
  // arrival instant stays queued for now — the eager schedule enqueues
  // first there (see catch_up) — and is served right after the enqueue via
  // the serve_next() fall-through below.
  if (lazy_ && queued_ != 0) catch_up(sim_.now(), /*include_now=*/false);
  // Tapless fast path: no observer can see the enqueue stamp, so skip it.
  if (tapped_) {
    for (auto& tap : arrival_taps_) tap(pkt);
    pkt.enqueue_time = sim_.now();
  }
  if (!queue_->enqueue(std::move(pkt))) return;  // dropped; stats in queue
  ++queued_;
  if (service_event_pending_) return;  // a service event will drain the queue
  if (sim_.now() < service_done_) {
    // Lazy fused link mid-serialization: leave the packet queued. The wire's
    // current packet is still propagating (its delivery is pending), and
    // that delivery — or the next arrival — runs the catch-up that serves
    // this one at the exact boundary. (Unreachable with lazy() false: the
    // full path always has its service event pending while serializing.)
    return;
  }
  serve_next();
}

void Link::serve_next() {
  // Precondition: queued_ > 0 and the wire is idle (now >= service_done_).
  --queued_;
  // The queue no longer owns the packet; it rides in `in_service_` until the
  // service event fires, so the event itself captures nothing but `this`.
  // Events are scheduled straight on the scheduler — links live as long as
  // the simulation (Simulator arena), so no Timer cancel-on-destroy
  // indirection is needed on this path.
  Packet pkt = queue_->dequeue_nonempty();
  const Time tx = transmission_time(pkt.size_bytes, rate_) * service_scale_;
  const Time fin = sim_.now() + tx;
  service_done_ = fin;
  if (lazy_) {
    // Fusion: serialize synchronously, claim the delivery slot now. The
    // packet reaches downstream at the exact time the full path delivers
    // it; only the event count differs. Any backlog that builds behind it
    // is drained by catch_up() from later visits, never by an event.
    emit(std::move(pkt), fin);
    return;
  }
  in_service_ = std::move(pkt);
  service_event_pending_ = true;
  sim_.schedule(tx, [this] { finish_service(); });
}

void Link::finish_service() {
  service_event_pending_ = false;
  for (auto& tap : departure_taps_) tap(in_service_);
  emit(std::move(in_service_), sim_.now());
  if (queued_ > 0) serve_next();
}

void Link::catch_up(Time now, bool include_now) {
  // Replay, at their exact boundary times, the services an eager boundary
  // event chain would have performed by `now`: every packet still queued
  // arrived while the wire was busy, so its service starts the instant the
  // previous serialization ends. Each emission's due falls strictly after
  // every due already in flight (fin grows monotonically), so the delivery
  // ring stays FIFO and nothing is scheduled in the past; and whenever a
  // backlog survives this loop the packet that set service_done_ is still
  // propagating, so a delivery event is pending to drive the next call.
  //
  // A boundary landing EXACTLY on `now` is the delicate case, because link
  // rates are rationally locked (e.g. five 25 Mbps attack spacings equal
  // three 15 Mbps service times), so float-identical ties do happen. The
  // eager schedule breaks them by event rank: an arrival's delivery event
  // claimed its rank a whole propagation delay ago, a boundary event only
  // one service time ago, so at a tie the ARRIVAL fires first — callers on
  // the arrival path pass include_now = false and serve the tied boundary
  // after the enqueue, while this link's own delivery (whose rank is older
  // than any boundary event's) passes true and drains through it.
  while (queued_ > 0 &&
         (service_done_ < now || (include_now && service_done_ == now))) {
    --queued_;
    Packet pkt = queue_->dequeue_nonempty_at(service_done_);
    const Time fin = service_done_ +
                     transmission_time(pkt.size_bytes, rate_) * service_scale_;
    service_done_ = fin;
    emit(std::move(pkt), fin);
  }
}

void Link::inject_at(Packet pkt, Time arrival) {
  // Express serialization at an explicit arrival instant: now() when called
  // from handle(), the analytic `fin + delay` of the upstream lane when
  // called from a chain handoff. Arrivals reach an express lane in
  // non-decreasing order (single upstream, constant delay), so chaining
  // off service_done_ reproduces FIFO exactly.
  const Time start = arrival < service_done_ ? service_done_ : arrival;
  const Time fin =
      start + transmission_time(pkt.size_bytes, rate_) * service_scale_;
  service_done_ = fin;
  emit(std::move(pkt), fin);
}

void Link::emit(Packet pkt, Time fin) {
  if (chain_hop_ != nullptr) {
    // Chain handoff: the downstream express lane serializes from the
    // analytic arrival time; this link never owns a delivery event.
    chain_target(pkt.dst)->inject_at(std::move(pkt), fin + delay_);
    return;
  }
  // Propagation is pipelined: hand off `delay_` after serialization ends,
  // then the next buffered packet starts. Same delay for every packet means
  // deliveries happen in departure order, so FIFO rings carry them and the
  // delivery timer only ever tracks the head — it is armed here when the
  // pipeline was empty and re-armed in deliver() while packets remain.
  const Time when = fin + delay_;
  // Rank claimed NOW: ties at the same timestamp keep firing in departure
  // order even though the heap node materializes later.
  const std::uint32_t seq = sim_.scheduler().allocate_seq();
  if (pipe_.empty()) arm_delivery(when, seq);
  pipe_.push_back(InFlight{std::move(pkt), when, seq});
}

void Link::chain_via(Node* hop) {
  PDOS_REQUIRE(queue_ == nullptr,
               "Link: chain handoff requires an express lane");
  PDOS_REQUIRE(hop != nullptr, "Link: chain hop must be non-null");
  chain_hop_ = hop;
}

Link* Link::chain_resolve(NodeId dst) {
  auto* next = dynamic_cast<Link*>(chain_hop_->peek_route(dst));
  PDOS_REQUIRE(next != nullptr && next->express(),
               "Link: chain handoff target must be an express link");
  if (dst >= 0) {
    if (static_cast<std::size_t>(dst) >= chain_cache_.size()) {
      chain_cache_.resize(static_cast<std::size_t>(dst) + 1, nullptr);
    }
    chain_cache_[static_cast<std::size_t>(dst)] = next;
  }
  return next;
}

void Link::arm_delivery(Time when, std::uint32_t seq) {
  // The claim instant is the emission time `fin == when - delay_`. On the
  // full service path that is literally when allocate_seq ran (emit() fires
  // inside finish_service at fin); fused and express paths claim their rank
  // at a different wall instant but use the same fin-claim, so a delivery
  // tie resolves by emission time on every path. The fast- and full-backend
  // tie order, which the golden digests pin, rests on this rule.
  sim_.scheduler().schedule_at_sequenced(when, when - delay_, seq,
                                         [this] { deliver(); });
}

void Link::deliver() {
  InFlight head = pipe_.pop_front();
  // Re-arm (head deadline) before any catch-up emission below: emit() arms
  // only when the pipeline is empty, so exactly one delivery event exists
  // either way — catch_up's first emission re-arms an emptied pipeline
  // itself.
  if (!pipe_.empty()) {
    const InFlight& next = pipe_.front();
    arm_delivery(next.when, next.seq);
  }
  if (lazy_ && queued_ != 0) catch_up(sim_.now(), /*include_now=*/true);
  downstream_->handle(std::move(head.pkt));
}

}  // namespace pdos
