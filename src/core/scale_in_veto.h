#pragma once

#include <string>

#include "cluster/engine.h"

namespace pstore {

/// The fault-aware veto both elasticity controllers put in front of a
/// scale-in, on top of their own confirmation rules. Returns why the
/// scale-in must wait, or "" when nothing blocks it. It checks, in
/// order, strain the measured rate cannot see:
///  - an open circuit breaker: the cluster is shedding, so the forecast
///    underestimates the offered load (never open without overload
///    control);
///  - recovery replay or degraded k-safety: both consume capacity, and
///    fewer machines stretch the window in which another failure loses
///    data;
///  - a suspected node: its buckets may be about to fail over (the wait
///    is bounded by the failover timeout);
///  - a draining node: impending capacity loss, and the evacuated
///    buckets need somewhere to land.
std::string ScaleInVeto(ClusterEngine* engine);

}  // namespace pstore
