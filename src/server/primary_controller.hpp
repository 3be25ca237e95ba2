/**
 * @file
 * Primary-application resource controllers (Section IV-C).
 *
 * Both controllers watch the primary's measured load and tail-latency
 * slack once per control period and adjust its (cores, ways)
 * allocation; the spare goes to the best-effort co-runner. They
 * differ in *which* point of the indifference curve they pick:
 *
 *  - HeraclesController (baseline, used by the Random policy):
 *    feedback-only and power-unaware. It grows when slack is low and
 *    shrinks when slack is high, alternating between resource types —
 *    any feasible point on the indifference curve is acceptable.
 *
 *  - PomController (Power Optimized Management): steers to the
 *    minimum-power allocation the fitted Cobb-Douglas model predicts
 *    for the current load (the expansion path of Fig. 5), then uses
 *    the same latency feedback to correct model error. The search
 *    runs over a model::AllocationGrid built once per controller, a
 *    bit-identical replay of model::minPowerAllocationFor(), and
 *    only when the demand target moves: a repeated target reuses the
 *    last answer.
 */

#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "model/cobb_douglas.hpp"
#include "model/demand.hpp"
#include "util/rng.hpp"
#include "server/colocated_server.hpp"
#include "sim/allocation.hpp"

namespace poco::server
{

/** Grow when slack falls below this (paper: 10%). */
constexpr double kMinSlack = 0.10;
/** Shrink when slack rises above this (hysteresis deadband). */
constexpr double kHighSlack = 0.28;
static_assert(0.0 <= kMinSlack && kMinSlack < kHighSlack,
              "controller slack band must be ordered");

/** POM tuning (the cluster layer reads headroom too). */
struct ControllerConfig
{
    /** Demand inflation when converting model output to allocations. */
    double headroom = 1.0;
    /**
     * Let POM fine-tune the primary's core frequency (Section IV-C:
     * feedback tunes "the allocations (including core frequency)").
     * When enabled, sustained excess slack steps the primary's DVFS
     * down one notch at a time; any slack shortfall snaps it back to
     * maximum before resources grow. Off by default: the fitted
     * model is frequency-blind, so this is a pure-feedback knob.
     */
    bool tunePrimaryFrequency = false;
};

/** Interface: one decision per control period. */
class PrimaryController
{
  public:
    virtual ~PrimaryController() = default;

    virtual const std::string& name() const = 0;

    /**
     * Compute the next primary allocation from the current
     * observables. The caller installs the result.
     */
    virtual sim::Allocation decide(const ColocatedServer& server) = 0;
};

/**
 * Power-unaware latency-feedback controller (the baseline).
 *
 * Models the paper's Heracles-style baseline: it settles on "any one
 * of the feasible allocations in the indifference curve" without
 * differentiating resources by power. Concretely, whenever the
 * offered load shifts materially it draws a random core count and
 * then feedback-grows LLC ways (and, if exhausted, cores) until the
 * slack target is met; excess slack shrinks ways back. The emergent
 * steady state is a uniformly random point on the iso-load curve.
 */
class HeraclesController : public PrimaryController
{
  public:
    explicit HeraclesController(std::uint64_t seed = 7);

    const std::string& name() const override { return name_; }
    sim::Allocation decide(const ColocatedServer& server) override;

  private:
    std::string name_ = "heracles";
    Rng rng_;
    /** Load (rps) at the last random re-pick; <0 forces a re-pick. */
    double anchor_load_ = -1.0;
    /** Periods remaining before a shrink is allowed again. */
    int cooldown_ = 0;
};

/** Utility-guided power-optimized controller (POM). */
class PomController : public PrimaryController
{
  public:
    /**
     * @param utility Fitted indirect utility of the primary; its
     *        performance unit is the guarded max load (requests/s).
     */
    PomController(model::CobbDouglasUtility utility,
                  ControllerConfig config = {});

    const std::string& name() const override { return name_; }
    sim::Allocation decide(const ColocatedServer& server) override;

    const model::CobbDouglasUtility& utility() const
    {
        return utility_;
    }

  private:
    std::string name_ = "pom";
    model::CobbDouglasUtility utility_;
    ControllerConfig config_;
    /**
     * The utility over the server's lattice, built on the first
     * decide(): a controller drives one server, whose spec is fixed,
     * so the grid's answer for a given target never changes.
     */
    std::optional<model::AllocationGrid> grid_;
    /**
     * The last target searched (NaN before the first search) and the
     * grid's answer for it, empty beyond the modeled capacity.
     * decide() searches again only when the target differs (==).
     */
    double searched_target_ = std::numeric_limits<double>::quiet_NaN();
    std::optional<model::AllocationPlan> plan_;
    /** Extra demand headroom (2% units) learned from shortfalls. */
    int feedback_boost_ = 0;
    /** Load at the last regime change; <0 before the first decide. */
    double anchor_load_ = -1.0;
    /** Current primary frequency (used when tunePrimaryFrequency). */
    GHz freq_{0.0};
    /** Consecutive high-slack periods seen (frequency tuning). */
    int high_slack_streak_ = 0;
};

} // namespace poco::server
