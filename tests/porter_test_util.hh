/**
 * @file
 * Runs a CXLporter trace and then checks the simulator's accounting
 * audit, so every porter test run also proves the bookkeeping exact.
 */

#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "porter/autoscaler.hh"

namespace cxlfork::porter {

/** sim.run(trace), then fail the test if the accounting audit does. */
inline PorterMetrics
runAudited(PorterSim &sim, const std::vector<Request> &trace)
{
    PorterMetrics m = sim.run(trace);
    EXPECT_EQ(sim.auditAccounting(), "");
    return m;
}

inline PorterMetrics
runAudited(PorterSim &&sim, const std::vector<Request> &trace)
{
    return runAudited(sim, trace);
}

} // namespace cxlfork::porter
