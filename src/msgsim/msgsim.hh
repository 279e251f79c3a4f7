/**
 * @file
 * Umbrella header: the whole msgsim public API in one include.
 *
 *     #include "msgsim/msgsim.hh"
 *
 * Layering (bottom-up): core accounting -> simulation kernel ->
 * network substrates and NI -> machine -> messaging layers (CMAM,
 * high-level, verbs, NIC offload) -> stacks and protocols -> user
 * libraries (message passing,
 * collectives, RPC) -> analytic model and workloads.
 */

#ifndef MSGSIM_MSGSIM_HH
#define MSGSIM_MSGSIM_HH

// Core accounting.
#include "core/accounting.hh"
#include "core/cost_model.hh"
#include "core/counter.hh"
#include "core/op.hh"
#include "core/row.hh"
#include "core/types.hh"

// Simulation kernel.
#include "sim/event.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

// Network substrates and interface.
#include "cm5net/cm5_network.hh"
#include "crnet/cr_network.hh"
#include "net/fault.hh"
#include "net/network.hh"
#include "net/order.hh"
#include "net/packet.hh"
#include "net/topology.hh"
#include "net/tracer.hh"
#include "ni/net_iface.hh"

// Machine.
#include "machine/machine.hh"
#include "machine/memory.hh"
#include "machine/node.hh"
#include "machine/processor.hh"

// Messaging layers.
#include "cmam/cmam.hh"
#include "cmam/segment.hh"
#include "cmam/send_path.hh"
#include "nicam/nicam_layer.hh"
#include "rdmanet/rdma_nic.hh"

// Protocols and stacks.
#include "protocols/finite_xfer.hh"
#include "protocols/result.hh"
#include "protocols/rpc.hh"
#include "protocols/single_packet.hh"
#include "protocols/socket.hh"
#include "protocols/stack.hh"
#include "protocols/stream.hh"

// User-level libraries.
#include "coll/collectives.hh"
#include "msglib/msg_passing.hh"

// Analysis.
#include "model/analytic.hh"
#include "model/traffic_model.hh"
#include "traffic/engine.hh"
#include "traffic/traffic.hh"

#endif // MSGSIM_MSGSIM_HH
