/**
 * @file
 * Scenario harnesses: one closed protocol world per run.
 *
 * A harness owns a fresh Stack with a ScheduleController gating its
 * network, issues a fixed workload, and exposes the probes the
 * invariant suite and the explorer need: progress (poll everything
 * to fixpoint), kick (explicit timeout-style recovery when the
 * schedule starved the protocol), done, and the protocol-specific
 * safety/final checks.
 *
 * Everything is deterministic: no timers are armed, no RNG draws
 * happen during execution, so a schedule (choice sequence) fully
 * determines the run — the property exploration and replay rest on.
 */

#ifndef MSGSIM_CHECK_HARNESS_HH
#define MSGSIM_CHECK_HARNESS_HH

#include <memory>
#include <string>

#include "check/controller.hh"
#include "check/schedule.hh"

namespace msgsim::check
{

class ScenarioHarness
{
  public:
    virtual ~ScenarioHarness() = default;

    /** Build the harness for @p cfg; fatal on unknown protocol. */
    static std::unique_ptr<ScenarioHarness>
    make(const ScenarioConfig &cfg);

    ScheduleController &controller() { return *controller_; }
    const ScheduleController &controller() const
    {
        return *controller_;
    }
    Stack &stack() { return *stack_; }
    const ScenarioConfig &config() const { return cfg_; }

    /** Issue the scenario's sends (non-blocking under the gate). */
    virtual void start() = 0;

    /**
     * Drive every node's poll loop (and the simulator) to fixpoint:
     * all packets already delivered to NIs are handled, and any
     * sends they trigger are captured by the controller.
     */
    void progress();

    /**
     * Explicit timeout-model recovery, invoked by the explorer when
     * the protocol is quiescent but incomplete (e.g. flush partial
     * group acks, retransmit unacked packets, restart a transfer).
     * Returns true when it issued any recovery action.
     */
    virtual bool kick() { return false; }

    /** The workload's completion claim. */
    virtual bool done() const = 0;

    /**
     * Called once by the explorer when the run is done and the
     * network quiescent, before the final checks — the place for
     * teardown that must itself be verified (socket close).
     */
    virtual void finish() {}

    /** Per-step protocol safety check; empty string = holds. */
    virtual std::string protocolInvariant() const { return ""; }

    /** End-state protocol check; empty string = holds. */
    virtual std::string protocolFinal() const = 0;

  protected:
    explicit ScenarioHarness(const ScenarioConfig &cfg);

    ScenarioConfig cfg_;
    std::unique_ptr<Stack> stack_;
    /// Declared after stack_, so it is destroyed first: it releases
    /// the slots of packets still in flight into a live network.
    std::unique_ptr<ScheduleController> controller_;
};

} // namespace msgsim::check

#endif // MSGSIM_CHECK_HARNESS_HH
