//===- support/CommandLine.cpp - Table-driven flag parsing ----------------===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include <cstdio>

using namespace thistle;
using namespace thistle::cli;

Target::Target(bool &On)
    : Set([&On](std::string_view) {
        On = true;
        return Status::ok();
      }),
      TakesValue(false) {}

Target::Target(std::string &Text)
    : Set([&Text](std::string_view Value) {
        if (Value.empty())
          return Status::invalidArgument("wants a non-empty value");
        Text = Value;
        return Status::ok();
      }) {}

Target Target::help() {
  Target T;
  T.TakesValue = false;
  return T;
}

void cli::printUsage(const char *Prog, const Usage &U) {
  std::printf("usage: %s [options]\n", Prog);
  constexpr int HelpColumn = 32;
  for (const FlagGroup &Group : U.Groups) {
    std::printf("\n%s\n", Group.Title);
    for (const Flag &Spec : Group.Flags) {
      std::string Head = std::string("  ") + Spec.Name +
                         (Spec.Arg[0] ? " " : "") + Spec.Arg;
      // Long heads get their own line; the help always starts at the
      // same column so the table reads as a table.
      if (Head.size() + 2 > HelpColumn) {
        std::printf("%s\n", Head.c_str());
        Head.clear();
      }
      for (std::string_view Line : split(Spec.Help, '\n')) {
        std::printf("%-*s%.*s\n", HelpColumn, Head.c_str(),
                    static_cast<int>(Line.size()), Line.data());
        Head.clear();
      }
    }
  }
  std::printf("%s", U.Epilogue);
}

std::optional<int> cli::parseArgs(int Argc, char **Argv, const Usage &U) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Arg == "-h")
      Arg = "--help";
    const Flag *Row = nullptr;
    for (const FlagGroup &Group : U.Groups)
      for (const Flag &F : Group.Flags)
        if (Arg == F.Name)
          Row = &F;
    if (!Row || Row->Into.isHelp()) {
      if (!Row)
        std::fprintf(stderr, "error: unknown option '%s'\n", Argv[I]);
      printUsage(Argv[0], U);
      return Row ? 0 : 2;
    }
    std::string_view Value;
    if (Row->Into.takesValue()) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Row->Name);
        return 2;
      }
      Value = Argv[++I];
    }
    if (Status St = Row->Into.set(Value); !St.isOk()) {
      std::fprintf(stderr, "error: %s\n",
                   St.withContext(Row->Name).toString().c_str());
      return 2;
    }
  }
  return std::nullopt;
}

std::vector<std::string_view> cli::split(std::string_view Text, char Sep) {
  std::vector<std::string_view> Fields;
  while (true) {
    std::size_t Pos = Text.find(Sep);
    Fields.push_back(Text.substr(0, Pos));
    if (Pos == std::string_view::npos)
      return Fields;
    Text.remove_prefix(Pos + 1);
  }
}
