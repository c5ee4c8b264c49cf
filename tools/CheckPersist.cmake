# The corruption-injection matrix for durable state: every damaged
# snapshot or journal must be detected (version/CRC/length checks),
# reported as a persist warning plus a run-report problem, and degrade
# the run to a cold start — exit 0, results byte-identical to a run
# with no durable cache at all. Invoked by ctest as:
#   cmake -DTOOL=<thistle-opt> -DWORK_DIR=<dir> -DCHECK=handmade|faults
#         -P CheckPersist.cmake
#
#  handmade: hand-written bad-magic / truncated / CRC-mismatch /
#            torn-journal artifacts, plus the unusable-directory
#            usage error. Needs no fault-injection build.
#  faults:   the persist.* fault sites — failed and corrupted writes at
#            compaction time, detected on the next load; journal append
#            failures that degrade checkpointing but never the run.

set(NETWORK --network resnet18 --threads 2)

# Line-start anchored via a sentinel newline, so a cache directory
# named ".../foo-cache" cannot trip the "cache:" match mid-line.
function(strip_accounting VAR TEXT)
  string(REGEX REPLACE "\n(cache: |persist: |run report written to )[^\n]*"
    "" TEXT "\n${TEXT}")
  string(REGEX REPLACE "^\n" "" TEXT "${TEXT}")
  set(${VAR} "${TEXT}" PARENT_SCOPE)
endfunction()

# Runs the sweep over a cache dir seeded with one damaged artifact and
# requires: exit 0, a persist warning, the damage recorded in the run
# report, and results identical to the no-cache baseline.
function(check_damaged LABEL DIR)
  execute_process(
    COMMAND ${TOOL} ${NETWORK} --cache-dir ${DIR}
            --trace-json ${DIR}/report.json
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR
      "${LABEL}: expected exit 0, got '${CODE}'\n${OUT}\n${ERR}")
  endif()
  if(NOT OUT MATCHES "persist: warning: ")
    message(FATAL_ERROR "${LABEL}: damage not reported\n${OUT}")
  endif()
  file(READ ${DIR}/report.json JSON)
  if(NOT JSON MATCHES "\"data_loss_detected\": 1")
    message(FATAL_ERROR "${LABEL}: damage missing from run report\n${JSON}")
  endif()
  strip_accounting(OUT "${OUT}")
  if(NOT OUT STREQUAL "${BASE_OUT}")
    message(FATAL_ERROR
      "${LABEL}: damaged cache changed the results\n"
      "---- baseline ----\n${BASE_OUT}\n---- damaged ----\n${OUT}")
  endif()
endfunction()

if(CHECK STREQUAL "handmade")
  # The no-cache baseline every degraded run must reproduce.
  execute_process(
    COMMAND ${TOOL} ${NETWORK}
    OUTPUT_VARIABLE BASE_OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR "baseline run: expected exit 0, got '${CODE}'\n${ERR}")
  endif()
  strip_accounting(BASE_OUT "${BASE_OUT}")

  # 1. A snapshot from some other (or future) format entirely.
  set(DIR ${WORK_DIR}/persist-badmagic)
  file(REMOVE_RECURSE ${DIR})
  file(WRITE ${DIR}/gpcache.snap "bogus-format/9 snap gpcache2 4 deadbeef\nXXXX")
  check_damaged("bad magic" ${DIR})

  # 2. A snapshot whose header promises more payload than the file holds
  #    (a torn write that lost the tail).
  set(DIR ${WORK_DIR}/persist-truncated)
  file(REMOVE_RECURSE ${DIR})
  file(WRITE ${DIR}/gpcache.snap
    "thistle-snapshot/1 snap gpcache2 100 0b45a69c\nshort")
  check_damaged("truncated snapshot" ${DIR})

  # 3. A size-consistent snapshot whose payload fails the CRC (silent
  #    bit rot).
  set(DIR ${WORK_DIR}/persist-badcrc)
  file(REMOVE_RECURSE ${DIR})
  file(WRITE ${DIR}/gpcache.snap
    "thistle-snapshot/1 snap gpcache2 4 00000000\nABCD")
  check_damaged("CRC mismatch" ${DIR})

  # 4. A journal with a valid header and a torn record: the (empty)
  #    intact prefix is kept, the tail reported lost.
  set(DIR ${WORK_DIR}/persist-tornjournal)
  file(REMOVE_RECURSE ${DIR})
  file(WRITE ${DIR}/gpcache.journal
    "thistle-snapshot/1 journal gpcache2\nrec 50 0123abcd\nshort")
  check_damaged("torn journal" ${DIR})

  # 5. An unusable cache directory is a usage error (exit 2), caught
  #    before any solving starts.
  file(WRITE ${WORK_DIR}/persist-not-a-dir "plain file\n")
  execute_process(
    COMMAND ${TOOL} ${NETWORK} --cache-dir ${WORK_DIR}/persist-not-a-dir
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 2)
    message(FATAL_ERROR
      "unusable dir: expected exit 2, got '${CODE}'\n${OUT}\n${ERR}")
  endif()
  if(NOT ERR MATCHES "--cache-dir")
    message(FATAL_ERROR "unusable dir: no diagnostic on stderr\n${ERR}")
  endif()

elseif(CHECK STREQUAL "faults")
  execute_process(
    COMMAND ${TOOL} ${NETWORK}
    OUTPUT_VARIABLE BASE_OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR "baseline run: expected exit 0, got '${CODE}'\n${ERR}")
  endif()
  strip_accounting(BASE_OUT "${BASE_OUT}")

  # 1. persist.write-fail:0 — the clean-exit compaction fails. The run
  #    still exits 0 and keeps the journal so no checkpoint is lost.
  set(DIR ${WORK_DIR}/persist-writefail)
  file(REMOVE_RECURSE ${DIR})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env THISTLE_FAULT=persist.write-fail:0
            ${TOOL} ${NETWORK} --cache-dir ${DIR}
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR
      "write-fail run: expected exit 0, got '${CODE}'\n${OUT}\n${ERR}")
  endif()
  if(NOT OUT MATCHES "persist: warning: .*journal kept")
    message(FATAL_ERROR "write-fail run: failure not reported\n${OUT}")
  endif()
  if(EXISTS ${DIR}/gpcache.snap)
    message(FATAL_ERROR "write-fail run: a snapshot appeared anyway")
  endif()
  if(NOT EXISTS ${DIR}/gpcache.journal)
    message(FATAL_ERROR "write-fail run: the journal was not kept")
  endif()
  # The kept journal is a complete checkpoint: the next (fault-free) run
  # replays every task from it and compacts successfully.
  execute_process(
    COMMAND ${TOOL} ${NETWORK} --resume ${DIR}
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR
      "post-write-fail resume: expected exit 0, got '${CODE}'\n${ERR}")
  endif()
  if(NOT OUT MATCHES ", 0 misses")
    message(FATAL_ERROR
      "post-write-fail resume: journal did not replay fully\n${OUT}")
  endif()
  if(NOT EXISTS ${DIR}/gpcache.snap)
    message(FATAL_ERROR "post-write-fail resume: compaction failed")
  endif()
  strip_accounting(OUT "${OUT}")
  if(NOT OUT STREQUAL "${BASE_OUT}")
    message(FATAL_ERROR
      "post-write-fail resume changed the results\n"
      "---- baseline ----\n${BASE_OUT}\n---- resumed ----\n${OUT}")
  endif()

  # 2/3. persist.corrupt-crc:0 and persist.torn-write:0 — the compacted
  #      snapshot is silently damaged on disk. The next run must detect
  #      it, report it, degrade to a cold start, and still match the
  #      baseline.
  foreach(SITE persist.corrupt-crc persist.torn-write)
    set(DIR ${WORK_DIR}/persist-${SITE})
    file(REMOVE_RECURSE ${DIR})
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E env THISTLE_FAULT=${SITE}:0
              ${TOOL} ${NETWORK} --cache-dir ${DIR}
      OUTPUT_VARIABLE OUT
      ERROR_VARIABLE ERR
      RESULT_VARIABLE CODE)
    if(NOT CODE EQUAL 0)
      message(FATAL_ERROR
        "${SITE} writer run: expected exit 0, got '${CODE}'\n${OUT}\n${ERR}")
    endif()
    if(NOT EXISTS ${DIR}/gpcache.snap)
      message(FATAL_ERROR "${SITE} writer run: no snapshot written")
    endif()
    execute_process(
      COMMAND ${TOOL} ${NETWORK} --cache-dir ${DIR}
              --trace-json ${DIR}/report.json
      OUTPUT_VARIABLE OUT
      ERROR_VARIABLE ERR
      RESULT_VARIABLE CODE)
    if(NOT CODE EQUAL 0)
      message(FATAL_ERROR
        "${SITE} reader run: expected exit 0, got '${CODE}'\n${OUT}\n${ERR}")
    endif()
    if(NOT OUT MATCHES "persist: warning: ")
      message(FATAL_ERROR "${SITE} reader run: damage not reported\n${OUT}")
    endif()
    if(NOT OUT MATCHES "data loss detected")
      message(FATAL_ERROR "${SITE} reader run: no data-loss marker\n${OUT}")
    endif()
    file(READ ${DIR}/report.json JSON)
    if(NOT JSON MATCHES "\"data_loss_detected\": 1")
      message(FATAL_ERROR
        "${SITE} reader run: damage missing from run report\n${JSON}")
    endif()
    strip_accounting(OUT "${OUT}")
    if(NOT OUT STREQUAL "${BASE_OUT}")
      message(FATAL_ERROR
        "${SITE}: damaged snapshot changed the results\n"
        "---- baseline ----\n${BASE_OUT}\n---- damaged ----\n${OUT}")
    endif()
  endforeach()

  # 4. persist.write-fail:1 — every journal append fails. Checkpointing
  #    degrades (reported), the sweep itself is untouched, and the
  #    clean-exit snapshot still captures the full cache.
  set(DIR ${WORK_DIR}/persist-appendfail)
  file(REMOVE_RECURSE ${DIR})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env THISTLE_FAULT=persist.write-fail:1
            ${TOOL} ${NETWORK} --cache-dir ${DIR}
            --trace-json ${DIR}/report.json
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR
      "append-fail run: expected exit 0, got '${CODE}'\n${OUT}\n${ERR}")
  endif()
  if(NOT OUT MATCHES "persist: warning: .*append")
    message(FATAL_ERROR "append-fail run: failures not reported\n${OUT}")
  endif()
  if(NOT EXISTS ${DIR}/gpcache.snap)
    message(FATAL_ERROR "append-fail run: compaction failed")
  endif()
  file(READ ${DIR}/report.json JSON)
  if(JSON MATCHES "\"append_failures\": 0,")
    message(FATAL_ERROR
      "append-fail run: report claims clean checkpointing\n${JSON}")
  endif()
  strip_accounting(OUT "${OUT}")
  if(NOT OUT STREQUAL "${BASE_OUT}")
    message(FATAL_ERROR
      "append failures changed the results\n"
      "---- baseline ----\n${BASE_OUT}\n---- degraded ----\n${OUT}")
  endif()

else()
  message(FATAL_ERROR "unknown CHECK '${CHECK}'")
endif()
