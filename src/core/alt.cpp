#include "core/alt.hpp"

#include "core/runtime.hpp"

namespace mw {

namespace internal {
AltOutcome run_alternatives_virtual(Runtime& rt, World& parent,
                                    const std::vector<Alternative>& alts,
                                    const AltOptions& opts);
AltOutcome run_alternatives_pool(Runtime& rt, World& parent,
                                 const std::vector<Alternative>& alts,
                                 const AltOptions& opts);
}  // namespace internal

AltOutcome run_alternatives(Runtime& rt, World& parent,
                            const std::vector<Alternative>& alts,
                            const AltOptions& opts) {
  AltOutcome out;
  switch (rt.config().backend) {
    case AltBackend::kVirtual:
      out = internal::run_alternatives_virtual(rt, parent, alts, opts);
      break;
    case AltBackend::kPool:
      out = internal::run_alternatives_pool(rt, parent, alts, opts);
      break;
  }
  rt.record_outcome(out);
  return out;
}

}  // namespace mw
