#ifndef VFLFIA_OBS_SNAPSHOT_IO_H_
#define VFLFIA_OBS_SNAPSHOT_IO_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace vfl::obs {

/// Human renderers for a MetricsSnapshot. They print units, so they are for
/// a local registry's snapshot; a snapshot scraped over the wire travels as a
/// cumulative VTS1 frame (obs/timeseries.h `DiffSnapshots`/
/// `SnapshotFromFrame`), which carries no units.

/// Aligned human-readable table (the `vflfia_cli --metrics=text` dump).
/// Histogram rows show count/mean/p50/p99/p999 computed from the buckets.
std::string RenderText(const MetricsSnapshot& snapshot);

/// One JSON object keyed by metric name (`--metrics=json`); histograms carry
/// count/sum/mean/p50/p99/p999.
std::string RenderJson(const MetricsSnapshot& snapshot);

}  // namespace vfl::obs

#endif  // VFLFIA_OBS_SNAPSHOT_IO_H_
