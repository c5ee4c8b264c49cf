//===- support/SweepReport.cpp - Per-sweep fault accounting ---------------===//

#include "support/SweepReport.h"

#include <sstream>

using namespace thistle;

const char *thistle::taskOutcomeName(TaskOutcome Outcome) {
  switch (Outcome) {
  case TaskOutcome::Solved:
    return "solved";
  case TaskOutcome::Degraded:
    return "degraded";
  case TaskOutcome::Infeasible:
    return "infeasible";
  case TaskOutcome::Failed:
    return "failed";
  case TaskOutcome::Skipped:
    return "skipped";
  }
  return "unknown";
}

void SweepReport::record(TaskOutcome Outcome, std::size_t Index,
                         std::size_t A, std::size_t B, unsigned Attempts,
                         std::string Detail) {
  switch (Outcome) {
  case TaskOutcome::Solved:
    ++Solved;
    break;
  case TaskOutcome::Degraded:
    ++Degraded;
    break;
  case TaskOutcome::Infeasible:
    ++Infeasible;
    break;
  case TaskOutcome::Failed:
    ++Failed;
    break;
  case TaskOutcome::Skipped:
    ++Skipped;
    break;
  }
  if (Attempts > 1)
    ++Retried;
  if (Outcome != TaskOutcome::Solved)
    Incidents.push_back(
        {Index, A, B, Outcome, Attempts, std::move(Detail)});
}

void SweepReport::recordPolicySkip(std::size_t Index, std::size_t A,
                                   std::size_t B, std::string Detail) {
  ++SkippedByPolicy;
  record(TaskOutcome::Skipped, Index, A, B, 0, std::move(Detail));
}

void SweepReport::merge(SweepReport &&Next) {
  Solved += Next.Solved;
  Retried += Next.Retried;
  Degraded += Next.Degraded;
  Infeasible += Next.Infeasible;
  Failed += Next.Failed;
  Skipped += Next.Skipped;
  SkippedByPolicy += Next.SkippedByPolicy;
  DeadlineExpired = DeadlineExpired || Next.DeadlineExpired;
  Incidents.insert(Incidents.end(),
                   std::make_move_iterator(Next.Incidents.begin()),
                   std::make_move_iterator(Next.Incidents.end()));
}

std::string SweepReport::toString(const char *TaskNoun) const {
  std::ostringstream OS;
  if (total() == 0) {
    // An empty sweep (e.g. a hierarchy that yields zero tasks) must say
    // so explicitly rather than print a blank summary.
    OS << "0 " << TaskNoun << "s: nothing attempted";
    if (DeadlineExpired)
      OS << " [deadline expired]";
    return OS.str();
  }
  OS << total() << " " << TaskNoun << "s: " << Solved << " solved";
  if (Retried)
    OS << " (" << Retried << " after retries)";
  if (Degraded)
    OS << ", " << Degraded << " degraded";
  if (Infeasible)
    OS << ", " << Infeasible << " infeasible";
  if (Failed)
    OS << ", " << Failed << " failed";
  if (Skipped) {
    OS << ", " << Skipped << " skipped";
    if (SkippedByPolicy)
      OS << " (" << SkippedByPolicy << " by policy)";
  }
  if (DeadlineExpired)
    OS << " [deadline expired]";
  for (const SweepIncident &I : Incidents) {
    // Genuine infeasibility is an expected model property of many pairs;
    // keep the incident list focused on faults and losses.
    if (I.Outcome == TaskOutcome::Infeasible)
      continue;
    OS << "\n  " << TaskNoun << " " << I.Index << " (" << I.A << ","
       << I.B << "): " << taskOutcomeName(I.Outcome);
    if (I.Attempts > 1)
      OS << " after " << I.Attempts << " attempts";
    if (!I.Detail.empty())
      OS << ": " << I.Detail;
  }
  return OS.str();
}

bool thistle::resolveSweepDeadline(
    std::chrono::milliseconds Relative,
    std::chrono::steady_clock::time_point Absolute,
    std::chrono::steady_clock::time_point &Out) {
  if (Absolute != std::chrono::steady_clock::time_point{}) {
    Out = Absolute;
    return true;
  }
  if (Relative.count() > 0) {
    Out = std::chrono::steady_clock::now() + Relative;
    return true;
  }
  return false;
}
