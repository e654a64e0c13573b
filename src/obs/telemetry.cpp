#include "obs/telemetry.hpp"

namespace smore::obs {

Telemetry::Telemetry(TelemetryConfig config)
    : tracer_(config.trace), events_(config.event_capacity) {}

}  // namespace smore::obs
