//===- support/CommandLine.h - Table-driven flag parsing --------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one command-line parser of the tools. A tool describes each flag
/// as one row — name, value metavar, help text and a typed target that
/// carries the accepted range — so the --help table and the parser come
/// from the same rows and a flag cannot be accepted without a usage line.
/// Every number goes through readNumber(), which takes the whole argument
/// or rejects it: junk, trailing characters, a sign on an unsigned value,
/// overflow and out-of-range values all exit 2 with an `error:` line
/// naming the flag.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_SUPPORT_COMMANDLINE_H
#define THISTLE_SUPPORT_COMMANDLINE_H

#include "support/Status.h"

#include <charconv>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace thistle {
namespace cli {

/// Reads all of \p Text as one decimal number of type T (an integer type
/// or double) within [Min, Max].
template <class T>
Expected<T> readNumber(std::string_view Text,
                       T Min = std::numeric_limits<T>::lowest(),
                       T Max = std::numeric_limits<T>::max()) {
  const std::string Quoted = "'" + std::string(Text) + "'";
  T V{};
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec == std::errc::result_out_of_range)
    return Status::invalidArgument(Quoted + " does not fit the value type");
  if (std::is_unsigned_v<T> && !Text.empty() && Text[0] == '-')
    return Status::invalidArgument(Quoted + " is negative");
  if (Ec != std::errc() || Ptr != End || Text.empty())
    return Status::invalidArgument(Quoted + " is not a number");
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(V))
      return Status::invalidArgument(Quoted + " is not a finite number");
  if (V < Min || V > Max) {
    std::ostringstream Want; // '+' prints one-byte integers as numbers.
    if (Max == std::numeric_limits<T>::max())
      Want << "at least " << +Min;
    else
      Want << +Min << "-" << +Max;
    return Status::invalidArgument(Quoted + " is out of range (want " +
                                   Want.str() + ")");
  }
  return V;
}

/// Moves a converted value into \p Value, or passes its error on.
template <class T, class U> Status store(T &Value, Expected<U> V) {
  if (!V)
    return V.status();
  Value = std::move(V.value());
  return Status::ok();
}

/// Where a flag's value lands, and how it is checked on the way.
class Target {
public:
  /// A switch: the flag takes no value and sets \p On.
  Target(bool &On);
  /// Any non-empty text.
  Target(std::string &Text);
  /// A number in [Min, Max], read with readNumber().
  template <class T>
  Target(T &Number, std::type_identity_t<T> Min,
         std::type_identity_t<T> Max = std::numeric_limits<T>::max())
      : Set([&Number, Min, Max](std::string_view Text) {
          return store(Number, readNumber<T>(Text, Min, Max));
        }) {}
  /// A value named by a token, converted by \p Parse (e.g. parsePadding).
  template <class T, class U>
  Target(T &Value, Expected<U> (*Parse)(const std::string &))
      : Set([&Value, Parse](std::string_view Text) {
          return store(Value, Parse(std::string(Text)));
        }) {}
  /// A custom conversion that stores the value or says why it cannot.
  template <class F>
    requires std::is_invocable_r_v<Status, F, std::string_view>
  Target(F Parse) : Set(std::move(Parse)) {}
  /// The --help row: parseArgs prints the usage and stops.
  static Target help();

  bool isHelp() const { return !Set; }
  bool takesValue() const { return TakesValue; }
  Status set(std::string_view Value) const { return Set(Value); }

private:
  Target() = default;
  std::function<Status(std::string_view)> Set;
  bool TakesValue = true;
};

/// One row of a tool's flag table.
struct Flag {
  const char *Name; ///< "--layer".
  const char *Arg;  ///< Value metavar, "" for switches.
  const char *Help; ///< Description; '\n' separates continuation lines.
  Target Into;
};

struct FlagGroup {
  const char *Title;
  std::vector<Flag> Flags;
};

/// A tool's whole command line: the flag table and the text printed
/// after it by --help (exit codes, notes).
struct Usage {
  std::vector<FlagGroup> Groups;
  const char *Epilogue;
};

/// Prints the usage table: one line per flag, help aligned in a column.
void printUsage(const char *Prog, const Usage &U);

/// Parses Argv[1..] against the table, storing every value through its
/// row's target; "-h" is short for "--help". Returns the code the tool
/// should exit with — 0 after printing the usage for --help, 2 after an
/// `error:` line on stderr — or nullopt when the tool should run.
std::optional<int> parseArgs(int Argc, char **Argv, const Usage &U);

/// Splits \p Text at every \p Sep into the fields it separates.
std::vector<std::string_view> split(std::string_view Text, char Sep);

} // namespace cli
} // namespace thistle

#endif // THISTLE_SUPPORT_COMMANDLINE_H
