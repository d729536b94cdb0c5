#include "cashmere/protocol/coherence_log.hpp"

#include <sys/mman.h>

#include <new>
#include <type_traits>

#include "cashmere/common/logging.hpp"

namespace cashmere {

namespace {

std::uint32_t ClampEntries(std::uint32_t entries) {
  return entries == 0 ? 1u : entries;
}

}  // namespace

// The destructor unmaps the ring without running record destructors.
static_assert(std::is_trivially_destructible_v<CoherenceRecord>);

CoherenceLog::CoherenceLog(std::uint32_t entries)
    : entries_(ClampEntries(entries)),
      ring_bytes_((entries_ * sizeof(CoherenceRecord) + kPageBytes - 1) / kPageBytes *
                  kPageBytes),
      // 4x the record ring: gate slots only hold {seq, vt}, and the larger
      // ring keeps apply times findable well after the record slot recycles.
      gate_(entries_ * 4) {
  // Not a std::vector: value-initialization would zero every record's
  // 16 KB wire image up front, though most publishes write a few KB of it.
  void* p = mmap(nullptr, ring_bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                 -1, 0);
  CSM_CHECK(p != MAP_FAILED);
  ring_ = static_cast<CoherenceRecord*>(p);
  for (std::size_t i = 0; i < entries_; ++i) {
    new (&ring_[i]) CoherenceRecord;  // default-init: the wire bytes stay untouched
  }
}

CoherenceLog::~CoherenceLog() { munmap(ring_, ring_bytes_); }

CoherenceEngine::CoherenceEngine(const Config& cfg) {
  const std::uint32_t entries = ClampEntries(cfg.async.log_entries);
  for (int u = 0; u < cfg.units(); ++u) {
    logs_.emplace_back(entries);
  }
}

bool CoherenceEngine::AllEmpty() const {
  for (const CoherenceLog& log : logs_) {
    if (!log.Empty()) {
      return false;
    }
  }
  return true;
}

}  // namespace cashmere
