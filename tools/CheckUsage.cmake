# Asserts a tool's --help text documents every user-facing contract:
# every flag the parser accepts (scraped from the `{"--flag",` rows of
# the tool's flag table, so a new flag cannot land undocumented), the
# exit codes, and the doc pointers. Invoked by ctest as:
#   cmake -DTOOL=<thistle-opt> -DSOURCE=<thistle-opt.cpp>
#         [-DMODE=serve|query] -P CheckUsage.cmake
# The default mode audits thistle-opt (docs/THISTLE_OPT.md mirrors its
# usage text); MODE=serve audits the thistle-serve daemon and
# MODE=query the thistle-query client (both in docs/SERVING.md).

if(MODE STREQUAL "query")
  set(PINNED
      --port --port-file --request --file --parallel --strip-server --help)
  set(EXIT_PAIRS "0  every request got a response" "1  a connection"
      "2  invalid arguments")
  set(DOC_POINTER "")
elseif(MODE STREQUAL "serve")
  # Known-important flags, pinned explicitly so a parser-scrape
  # regression cannot silently weaken the audit.
  set(PINNED
      --port --port-file --max-clients --threads
      --cache-dir --cache-capacity --snapshot-every --trace-json)
  set(EXIT_PAIRS "0  clean shutdown" "2  invalid arguments")
  set(DOC_POINTER "docs/SERVING.md")
else()
  set(PINNED
      --layer --resnet --yolo --pipeline --network
      --mode --objective --candidates --threads --deadline-ms --hierarchy
      --evaluator
      --pes --regs --sram-words --area-budget
      --export-timeloop --metrics --profile --trace-json)
  set(EXIT_PAIRS
      "0  success" "1  partial/degraded" "2  invalid input"
      "3  no feasible design")
  set(DOC_POINTER "docs/OBSERVABILITY.md")
endif()

execute_process(
  COMMAND ${TOOL} --help
  OUTPUT_VARIABLE OUT
  ERROR_VARIABLE ERR
  RESULT_VARIABLE CODE)
if(NOT CODE EQUAL 0)
  message(FATAL_ERROR "--help: expected exit code 0, got '${CODE}'\n${ERR}")
endif()

foreach(FLAG ${PINNED})
  if(NOT OUT MATCHES "${FLAG}")
    message(FATAL_ERROR "--help: flag ${FLAG} undocumented\n${OUT}")
  endif()
endforeach()

# Every flag the parser accepts (a `{"--x",` row of the flag table in
# the tool source) must appear in the usage table, and the scrape must
# find every pinned flag, so a change of row syntax cannot silently
# empty the audit.
file(READ ${SOURCE} SRC)
string(REGEX MATCHALL "{\"--[a-z-]+\"," ROWS "${SRC}")
set(PARSED "")
foreach(ROW ${ROWS})
  string(REGEX REPLACE "{\"(--[a-z-]+)\"," "\\1" FLAG "${ROW}")
  list(APPEND PARSED ${FLAG})
  if(NOT OUT MATCHES "  ${FLAG}[ \n]")
    message(FATAL_ERROR
      "--help: parsed flag ${FLAG} missing from usage\n${OUT}")
  endif()
endforeach()
foreach(FLAG ${PINNED})
  list(FIND PARSED ${FLAG} IDX)
  if(IDX EQUAL -1)
    message(FATAL_ERROR
      "${SOURCE}: pinned flag ${FLAG} has no flag-table row")
  endif()
endforeach()

if(NOT OUT MATCHES "exit codes:")
  message(FATAL_ERROR "--help: missing exit-code section\n${OUT}")
endif()
foreach(PAIR ${EXIT_PAIRS})
  if(NOT OUT MATCHES "${PAIR}")
    message(FATAL_ERROR "--help: missing exit code entry '${PAIR}'\n${OUT}")
  endif()
endforeach()

if(DOC_POINTER AND NOT OUT MATCHES "${DOC_POINTER}")
  message(FATAL_ERROR "--help: missing doc pointer ${DOC_POINTER}\n${OUT}")
endif()

# An unknown option must print the same usage text and exit 2.
execute_process(
  COMMAND ${TOOL} --no-such-flag
  OUTPUT_VARIABLE OUT
  ERROR_VARIABLE ERR
  RESULT_VARIABLE CODE)
if(NOT CODE EQUAL 2)
  message(FATAL_ERROR
    "unknown option: expected exit code 2, got '${CODE}'")
endif()
if(NOT ERR MATCHES "unknown option")
  message(FATAL_ERROR "unknown option: missing diagnostic\n${ERR}")
endif()
