#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "hermes/net/device.hpp"
#include "hermes/net/packet.hpp"
#include "hermes/net/packet_arena.hpp"
#include "hermes/net/port.hpp"
#include "hermes/sim/inline_function.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::net {

/// An end host: one NIC port toward its leaf switch, and a pluggable
/// receive handler (the transport stack registers itself here). The host
/// is the fabric's arena boundary: send() pools an endpoint-built Packet
/// into an arena slot, receive() moves the payload back out and frees
/// the slot before handing it to the transport stack.
class Host : public Device {
 public:
  /// Delivery hook type. Fixed inline storage (no heap): the transport
  /// stack captures `this`.
  static constexpr std::size_t kReceiveHookCapacity = 48;
  using ReceiveFn = sim::InlineCallable<kReceiveHookCapacity, void(Packet, int)>;

  Host(sim::Simulator& simulator, PacketArena& arena, int id)
      : simulator_{simulator}, arena_{arena}, id_{id} {}

  /// Wire the NIC to the leaf switch (called by the topology builder).
  void attach_uplink(PortConfig config, Device* leaf, int leaf_in_port) {
    uplink_ = std::make_unique<Port>(simulator_, arena_, "host" + std::to_string(id_) + ":nic",
                                     config, leaf, leaf_in_port);
  }

  // HERMES_HOT: arena entry point — every packet the fabric carries is
  // pooled here (one slot for its whole flight; switches pass handles).
  /// Transmit a fully formed packet (route already stamped).
  void send(Packet p) {
    assert(uplink_ && "host has no uplink");
    uplink_->send(arena_.alloc(std::move(p)));
  }

  // HERMES_HOT: arena exit point — the slot is freed before the stack
  // runs, so a steady flow recycles the same few slots.
  void receive(PacketHandle h, int in_port) override {
    Packet p = std::move(arena_[h]);
    arena_.free(h);
    if (on_receive) on_receive(std::move(p), in_port);
  }

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] Port& nic() { return *uplink_; }
  [[nodiscard]] const Port& nic() const { return *uplink_; }

  /// Delivery hook installed by the end-host stack.
  ReceiveFn on_receive;

 private:
  sim::Simulator& simulator_;
  PacketArena& arena_;
  int id_;
  std::unique_ptr<Port> uplink_;
};

}  // namespace hermes::net
