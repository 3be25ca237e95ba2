#include "server/primary_controller.hpp"

#include <algorithm>
#include <cmath>

#include "model/demand.hpp"
#include "util/check.hpp"

namespace poco::server
{

namespace
{

/** Control periods to wait after a grow before shrinking again. */
constexpr int kShrinkCooldown = 5;
/** Consecutive high-slack periods required per DVFS down-step. */
constexpr int kFreqStepPatience = 3;
/** Slack above minSlack + this margin is "excess" for DVFS. */
constexpr double kFreqSlackMargin = 0.12;

} // namespace

HeraclesController::HeraclesController(ControllerConfig config,
                                       std::uint64_t seed)
    : config_(config), rng_(seed)
{
    POCO_REQUIRE(config_.minSlack >= 0 &&
                 config_.minSlack < config_.highSlack,
                 "controller slack band must be ordered");
}

sim::Allocation
HeraclesController::decide(const ColocatedServer& server)
{
    const sim::ServerSpec& spec = server.spec();
    sim::Allocation alloc = server.primaryAlloc();
    const double slack = server.slack99();
    const Rps load = server.load();

    if (cooldown_ > 0)
        --cooldown_;

    // A material load shift invalidates the previous indifference
    // curve: draw a fresh random core count and let the way feedback
    // walk to a feasible point on the new curve. This realizes the
    // baseline's "any feasible allocation, undifferentiated by
    // power" behaviour.
    const Rps peak = server.lc().peakLoad();
    if (anchor_load_ < 0.0 ||
        std::abs(load.value() - anchor_load_) > 0.05 * peak.value()) {
        anchor_load_ = load.value();
        // Operator rule of thumb (model-free): at X% of peak load,
        // keep at least X% of the cores. The draw is uniform over a
        // band above that floor — the realistic stretch of the
        // indifference curve (granting, say, all 12 cores at 10%
        // load is feasible but not an operating point any deployment
        // would pick).
        const int min_cores = std::clamp(
            static_cast<int>(std::ceil(load / peak *
                                       static_cast<double>(spec.cores))),
            1, spec.cores);
        // Never hand the primary the last core unless the load floor
        // itself demands it: a zero-core spare would idle the co-runner
        // entirely.
        const int max_cores = std::max(min_cores,
            std::min(spec.cores - 1, min_cores + 6));
        alloc.cores = rng_.uniformInt(min_cores, max_cores);
        // Re-enter the curve from the safe side: grant all ways and
        // let the excess-slack path walk down to the iso-load curve.
        // (A real deployment would not gamble the primary's SLO on a
        // cold jump to a small allocation.)
        alloc.ways = spec.llcWays;
        cooldown_ = 0;
        return alloc;
    }

    if (slack < config_.minSlack) {
        // Latency pressure: grow ways aggressively — the deeper the
        // shortfall, the more units; once ways are exhausted, add
        // cores. An SLO violation triggers the maximum step.
        int units = 1 + static_cast<int>((config_.minSlack - slack) /
                                         0.04);
        units = std::clamp(units, 1, 5);
        if (slack < 0.0)
            units = 5;
        for (int u = 0; u < units; ++u) {
            if (alloc.ways < spec.llcWays)
                ++alloc.ways;
            else if (alloc.cores < spec.cores)
                ++alloc.cores;
        }
        cooldown_ = kShrinkCooldown;
    } else if (slack > config_.highSlack && cooldown_ == 0) {
        // Excess slack: walk back toward the curve one way at a time
        // — capacity is steeply sensitive to ways near small
        // allocations, so larger steps overshoot into violations.
        if (alloc.ways > 1)
            --alloc.ways;
        else if (alloc.cores > 1)
            --alloc.cores;
    }
    return alloc;
}

PomController::PomController(model::CobbDouglasUtility utility,
                             ControllerConfig config)
    : utility_(std::move(utility)), config_(config)
{
    POCO_REQUIRE(utility_.numResources() == 2,
                 "POM expects a (cores, ways) utility");
    POCO_REQUIRE(config_.minSlack >= 0 &&
                 config_.minSlack < config_.highSlack,
                 "controller slack band must be ordered");
}

sim::Allocation
PomController::decide(const ColocatedServer& server)
{
    const sim::ServerSpec& spec = server.spec();
    const double slack = server.slack99();
    const Rps load = server.load();
    const Rps peak = server.lc().peakLoad();

    // Latency feedback: a shortfall means the model is optimistic at
    // this operating point, so remember extra headroom. The boost is
    // sticky within a load regime — decaying it while the load is
    // unchanged would re-trigger the very shortfall that raised it
    // (an oscillation between violation and excess slack). It decays
    // partially when the load moves materially.
    if (anchor_load_ < 0.0 ||
        std::abs(load.value() - anchor_load_) > 0.05 * peak.value()) {
        anchor_load_ = load.value();
        feedback_boost_ = std::max(feedback_boost_ - 4, 0);
        // A load shift invalidates any frequency relaxation: snap
        // back to maximum before resizing.
        freq_ = spec.freqMax;
        high_slack_streak_ = 0;
    }
    // A shortfall raises the boost only when it is not self-
    // inflicted by a frequency relaxation — otherwise the DVFS and
    // demand loops chase each other (snap the frequency back first).
    const bool freq_relaxed =
        config_.tunePrimaryFrequency && freq_ > GHz{} &&
        freq_ < spec.freqMax - GHz{1e-9};
    if (slack < config_.minSlack && !freq_relaxed)
        feedback_boost_ = std::min(feedback_boost_ + 1, 16);

    // The model's performance unit is the guarded max load, so asking
    // for >= the offered load lands at ~minSlack by construction;
    // headroom and the feedback boost cover model error.
    const double target =
        std::max(server.load().value(), 1e-6) * config_.headroom *
        (1.0 + 0.02 * feedback_boost_);
    if (!grid_)
        grid_.emplace(utility_, spec);
    // The grid is fixed, so a repeated target has the last answer.
    if (target != searched_target_) {
        plan_ = grid_->minPowerFor(target);
        searched_target_ = target;
    }
    if (!plan_) {
        // Even the full server is predicted short: give everything.
        return sim::Allocation{spec.cores, spec.llcWays, spec.freqMax,
                               1.0};
    }

    sim::Allocation alloc = plan_->alloc;
    // Immediate-term safety: never step below the current allocation
    // while slack is already short.
    if (slack < config_.minSlack) {
        alloc.cores = std::max(alloc.cores,
                               server.primaryAlloc().cores);
        alloc.ways = std::max(alloc.ways, server.primaryAlloc().ways);
        // And grow by one unit of the per-watt cheapest resource.
        const auto pref = utility_.indirectPreference();
        if (pref[0] >= pref[1] && alloc.cores < spec.cores)
            ++alloc.cores;
        else if (alloc.ways < spec.llcWays)
            ++alloc.ways;
        else if (alloc.cores < spec.cores)
            ++alloc.cores;
    }

    // Optional DVFS fine-tuning: convert *persistent* excess slack
    // into frequency savings (core power ~ f^2.4, capacity ~ f^0.5-
    // 0.9, so each step trades little slack for real watts). A
    // shortfall reverts to max frequency before any resource grows.
    if (config_.tunePrimaryFrequency) {
        if (freq_ <= GHz{})
            freq_ = spec.freqMax;
        if (slack < config_.minSlack) {
            freq_ = spec.freqMax;
            high_slack_streak_ = 0;
        } else if (slack > config_.minSlack + kFreqSlackMargin) {
            if (++high_slack_streak_ >= kFreqStepPatience) {
                freq_ = spec.stepDown(freq_);
                high_slack_streak_ = 0;
            }
        } else {
            high_slack_streak_ = 0;
        }
        alloc.freq = freq_;
    }
    return alloc;
}

} // namespace poco::server
