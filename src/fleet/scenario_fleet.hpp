/**
 * @file
 * The seam between generated scenarios and fleet evaluation.
 *
 * scen sits below fleet in the layering DAG, so a Scenario describes
 * its servers with its own ScenarioServer mirror struct; this header
 * converts them into fleet::FleetServer rows and packages the whole
 * "generate, configure, evaluate" round trip. The Scenario owns the
 * app sets the servers point at — keep it alive for the evaluator's
 * lifetime.
 */

#pragma once

#include <vector>

#include "fleet/fleet_evaluator.hpp"
#include "scen/scenario.hpp"

namespace poco::fleet
{

/**
 * The scenario's flat server list as fleet rows. Pointers alias
 * @p scenario's per-cluster app sets; partitionFleet re-discovers
 * the clusters from those shared addresses.
 */
std::vector<FleetServer>
serversFromScenario(const scen::Scenario& scenario);

/**
 * Evaluate a generated scenario end to end: adopt its per-cluster
 * epoch schedule into @p config (withScenario), partition its
 * servers, and run the epoch loop. @p config carries everything
 * else — threads, profiler coarsening, budgets.
 */
Outcome<FleetRollup> evaluateScenario(const scen::Scenario& scenario,
                                      FleetConfig config = {});

} // namespace poco::fleet
