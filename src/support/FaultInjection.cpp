//===- support/FaultInjection.cpp - Deterministic fault injection ---------===//

#include "support/FaultInjection.h"

#if THISTLE_FAULT_INJECTION_ENABLED

#include "support/CommandLine.h"

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>

using namespace thistle;

namespace {

struct SiteState {
  std::int64_t Key = fault::AnyKey;
  unsigned HitsLeft = fault::Unlimited;
  unsigned Hits = 0;
};

struct Registry {
  std::mutex Mutex;
  std::map<std::string, SiteState> Sites;
};

Registry &registry() {
  static Registry R;
  return R;
}

/// Fast-path gate: number of armed sites. shouldFail is planted on hot
/// solver paths, so the disarmed case must not take a lock.
std::atomic<unsigned> ArmedSites{0};

} // namespace

void fault::arm(const std::string &Site, std::int64_t Key,
                unsigned MaxHits) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  SiteState &S = R.Sites[Site];
  S.Key = Key;
  S.HitsLeft = MaxHits;
  S.Hits = 0;
  ArmedSites.store(static_cast<unsigned>(R.Sites.size()),
                   std::memory_order_release);
}

void fault::disarm(const std::string &Site) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Sites.erase(Site);
  ArmedSites.store(static_cast<unsigned>(R.Sites.size()),
                   std::memory_order_release);
}

void fault::disarmAll() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Sites.clear();
  ArmedSites.store(0, std::memory_order_release);
}

bool fault::shouldFail(const char *Site, std::int64_t Key) {
  if (ArmedSites.load(std::memory_order_acquire) == 0)
    return false;
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  auto It = R.Sites.find(Site);
  if (It == R.Sites.end())
    return false;
  SiteState &S = It->second;
  if (S.Key != AnyKey && Key != AnyKey && S.Key != Key)
    return false;
  if (S.HitsLeft == 0)
    return false;
  if (S.HitsLeft != Unlimited)
    --S.HitsLeft;
  ++S.Hits;
  return true;
}

unsigned fault::hitCount(const std::string &Site) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  auto It = R.Sites.find(Site);
  return It == R.Sites.end() ? 0 : It->second.Hits;
}

std::string fault::armFromSpec(const std::string &Spec) {
  std::size_t Pos = 0;
  while (Pos < Spec.size()) {
    std::size_t Comma = Spec.find(',', Pos);
    std::string Entry = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    Pos = Comma == std::string::npos ? Spec.size() : Comma + 1;
    if (Entry.empty())
      continue;

    std::string Site = Entry;
    std::int64_t Key = AnyKey;
    unsigned MaxHits = Unlimited;
    std::size_t C1 = Entry.find(':');
    if (C1 != std::string::npos) {
      Site = Entry.substr(0, C1);
      std::size_t C2 = Entry.find(':', C1 + 1);
      std::string KeyText =
          Entry.substr(C1 + 1, C2 == std::string::npos ? std::string::npos
                                                       : C2 - C1 - 1);
      if (!KeyText.empty()) {
        Expected<std::int64_t> K = cli::readNumber<std::int64_t>(KeyText);
        if (!K)
          return "fault spec '" + Entry + "': key " + K.status().message();
        Key = K.value();
      }
      if (C2 != std::string::npos) {
        // A budget of ~0u would silently mean Unlimited; reject it.
        Expected<unsigned> Hits =
            cli::readNumber<unsigned>(Entry.substr(C2 + 1), 0, Unlimited - 1);
        if (!Hits)
          return "fault spec '" + Entry + "': max-hits " +
                 Hits.status().message();
        MaxHits = Hits.value();
      }
    }
    if (Site.empty())
      return "fault spec '" + Entry + "': empty site name";
    arm(Site, Key, MaxHits);
  }
  return std::string();
}

std::string fault::armFromEnv() {
  const char *Spec = std::getenv("THISTLE_FAULT");
  if (!Spec || !*Spec)
    return std::string();
  return armFromSpec(Spec);
}

#endif // THISTLE_FAULT_INJECTION_ENABLED
