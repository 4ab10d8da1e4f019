// The measurement-unit vocabulary and its serialization. One table in
// results_io.cpp declares every unit once — name, CampaignConfig flag,
// DeviceResults member, probe call — and the unit plan, the runner's
// dispatch, device_results_json, its decoder and the fingerprint's
// flags all iterate it. Each result struct has one field list that both
// the JsonWriter side and the JsonValue side walk. Doubles go through
// json_double's shortest-round-trip formatting, so a record that is
// journaled, parsed, and re-serialized is byte-identical — the property
// the kill/resume determinism tests assert.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/testrund.hpp"
#include "report/json.hpp"

namespace gatekit::harness {

/// Execution-ordered unit names for one device under `config`: "udp1",
/// "udp2", "udp3", "udp4", one "udp5:<service>" per configured service,
/// "tcp1", "tcp2", "tcp4", "icmp", "transports", "dns", "quirks",
/// "stun", "binding_rate". Disabled tests are absent.
std::vector<std::string> unit_plan(const CampaignConfig& config);

/// Writes a finished probe's result into its unit's slice of a record.
using UnitStore = std::function<void(DeviceResults&)>;
/// Receives a finished unit attempt. The store is valid only during the
/// call; the caller decides whether to apply it (the supervisor drops
/// superseded attempts).
using UnitDone = std::function<void(const UnitStore&)>;

/// Start the named unit's probe against testbed slot `slot`. UDP and
/// TCP-1 searches, TCP-2 transfers and TCP-4 watch `cancel`; the
/// single-shot probes run to completion. `unit` must be a name
/// unit_plan produces (ContractViolation otherwise).
void launch_unit(const std::string& unit, Testbed& tb, int slot,
                 const CampaignConfig& config,
                 std::shared_ptr<const bool> cancel, UnitDone done);

/// Whole-device serialization: tag, every unit's result, and the
/// supervisor unit reports. This is a journal record's "result" and the
/// byte-comparison format of the journal determinism tests — a resumed
/// campaign must reproduce the uninterrupted run's string exactly.
std::string device_results_json(const DeviceResults& r);

/// Decode a device_results_json record into `r`, so that re-serializing
/// it reproduces the record byte for byte. Absent fields keep their
/// values; false when `v` is not an object or names an unknown unit
/// status.
bool device_results_from_json(const report::JsonValue& v, DeviceResults& r);

/// FNV-1a hex fingerprint over the campaign knobs that shape the
/// measurement stream plus the device roster. A journal only resumes
/// into a campaign with the same fingerprint.
std::string campaign_fingerprint(const CampaignConfig& config,
                                 const std::vector<std::string>& devices);

} // namespace gatekit::harness
