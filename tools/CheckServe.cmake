# End-to-end contract of the thistle-serve daemon (docs/SERVING.md):
# answers to a query must be byte-identical whether served cold, hot
# from the in-memory cache, reloaded from the durable snapshot after a
# restart, raced by identical concurrent clients, or asked after other
# queries — and must match what a standalone thistle-opt run computes
# for the same problem.
# Invoked by ctest as:
#   cmake -DSERVE=<thistle-serve> -DQUERY=<thistle-query>
#         -DOPT=<thistle-opt> -DWORK_DIR=<dir>
#         [-DCHECKER=<check_run_report.py> -DPYTHON=<python3>]
#         -P CheckServe.cmake

set(DIR ${WORK_DIR}/serve-cache)
set(PORTFILE ${WORK_DIR}/serve-port.txt)
set(PIDFILE ${WORK_DIR}/serve-pid.txt)
file(REMOVE_RECURSE ${DIR})
file(REMOVE ${PORTFILE} ${PIDFILE})

# The layer and network queries the daemon will be asked to solve, and
# the equivalent standalone thistle-opt invocations they must match.
set(Q_LAYER "{\"schema\":\"thistle-serve/1\",\"id\":1,\"query\":{\"workload\":{\"layer\":[16,8,14,14,3,3]}}}")
set(Q_NET "{\"schema\":\"thistle-serve/1\",\"id\":2,\"query\":{\"workload\":{\"network\":\"resnet18\"}}}")
set(Q_DEADLINE "{\"schema\":\"thistle-serve/1\",\"id\":3,\"query\":{\"workload\":{\"layer\":[16,8,14,14,3,3]},\"deadline_ms\":1}}")
# Two-word register files: no design, every pair certified infeasible.
set(Q_TINY "{\"schema\":\"thistle-serve/1\",\"id\":4,\"query\":{\"workload\":{\"resnet\":2},\"arch\":{\"pes\":168,\"regs\":2,\"sram_words\":65536}}}")

function(wait_for_file PATH WHAT)
  foreach(I RANGE 100)
    if(EXISTS ${PATH})
      return()
    endif()
    execute_process(COMMAND sh -c "sleep 0.1")
  endforeach()
  message(FATAL_ERROR "timed out waiting for ${WHAT} (${PATH})")
endfunction()

function(wait_for_exit WHAT)
  file(READ ${PIDFILE} PID)
  string(STRIP "${PID}" PID)
  foreach(I RANGE 200)
    execute_process(COMMAND sh -c "kill -0 ${PID} 2>/dev/null"
      RESULT_VARIABLE ALIVE)
    if(NOT ALIVE EQUAL 0)
      return()
    endif()
    execute_process(COMMAND sh -c "sleep 0.1")
  endforeach()
  message(FATAL_ERROR "timed out waiting for ${WHAT} to exit (pid ${PID})")
endfunction()

# Extra arguments are passed to the daemon.
function(start_daemon REPORT LOG)
  file(REMOVE ${PORTFILE} ${PIDFILE})
  string(JOIN " " EXTRA ${ARGN})
  execute_process(
    COMMAND sh -c "'${SERVE}' --cache-dir '${DIR}' --threads 2 ${EXTRA} \
--port-file '${PORTFILE}' --trace-json '${REPORT}' \
> '${LOG}' 2>&1 & echo $! > '${PIDFILE}'"
    RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR "could not launch thistle-serve ('${CODE}')")
  endif()
  wait_for_file(${PORTFILE} "daemon port file")
endfunction()

# Sends requests with thistle-query, captures the raw response lines in
# OUTFILE. Every response the daemon ever produces is captured in some
# file so the final accounting check can reconcile them against the
# daemon's own run report.
function(run_query OUTFILE)
  execute_process(
    COMMAND ${QUERY} --port-file ${PORTFILE} ${ARGN}
    OUTPUT_FILE ${OUTFILE}
    ERROR_VARIABLE ERR
    RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR "thistle-query exit '${CODE}'\n${ERR}")
  endif()
endfunction()

# Cuts a response at its `server` section — latency, queue depth and
# per-request cache accounting legitimately differ between runs; the
# rest must not.
function(strip_server VAR LINE)
  string(FIND "${LINE}" ",\"server\":" POS REVERSE)
  if(NOT POS EQUAL -1)
    string(SUBSTRING "${LINE}" 0 ${POS} LINE)
    string(APPEND LINE "}")
  endif()
  set(${VAR} "${LINE}" PARENT_SCOPE)
endfunction()

function(first_line VAR PATH)
  file(STRINGS ${PATH} LINES)
  list(GET LINES 0 L)
  set(${VAR} "${L}" PARENT_SCOPE)
endfunction()

# 1. Standalone baselines: what thistle-opt computes for the same
#    problems, with run reports for the report-identity check below.
execute_process(
  COMMAND ${OPT} --layer 16,8,14,14,3,3
          --trace-json ${WORK_DIR}/serve-opt-layer.json
  OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE CODE)
if(NOT CODE EQUAL 0)
  message(FATAL_ERROR "layer baseline: expected exit 0, got '${CODE}'\n${ERR}")
endif()
execute_process(
  COMMAND ${OPT} --network resnet18 --threads 2
          --trace-json ${WORK_DIR}/serve-opt-net.json
  OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE CODE)
if(NOT CODE EQUAL 0)
  message(FATAL_ERROR
    "network baseline: expected exit 0, got '${CODE}'\n${ERR}")
endif()

# 2. First daemon lifetime: cold solve, hot replay, concurrent race.
start_daemon(${WORK_DIR}/serve-report-1.json ${WORK_DIR}/serve-log-1.txt)

run_query(${WORK_DIR}/serve-r1.jsonl --request ${Q_LAYER})
first_line(COLD ${WORK_DIR}/serve-r1.jsonl)
if(NOT COLD MATCHES "\"status\":\"ok\"")
  message(FATAL_ERROR "cold layer query did not succeed\n${COLD}")
endif()

run_query(${WORK_DIR}/serve-r2.jsonl --request ${Q_LAYER})
first_line(HOT ${WORK_DIR}/serve-r2.jsonl)
strip_server(COLD_CORE "${COLD}")
strip_server(HOT_CORE "${HOT}")
if(NOT COLD_CORE STREQUAL HOT_CORE)
  message(FATAL_ERROR
    "hot replay diverged from the cold solve\n"
    "---- cold ----\n${COLD_CORE}\n---- hot ----\n${HOT_CORE}")
endif()

# Eight identical requests racing on their own connections must
# collapse to one answer — the dedup/batching path cannot change bytes.
set(RACE ${WORK_DIR}/serve-race.jsonl)
file(WRITE ${RACE} "")
foreach(I RANGE 1 8)
  file(APPEND ${RACE} "${Q_LAYER}\n")
endforeach()
run_query(${WORK_DIR}/serve-r3.jsonl --parallel --file ${RACE})
file(STRINGS ${WORK_DIR}/serve-r3.jsonl RACE_LINES)
list(LENGTH RACE_LINES N)
if(NOT N EQUAL 8)
  message(FATAL_ERROR "race: expected 8 responses, got ${N}")
endif()
set(RACE_CORES "")
foreach(L ${RACE_LINES})
  strip_server(CORE "${L}")
  list(APPEND RACE_CORES "${CORE}")
endforeach()
list(REMOVE_DUPLICATES RACE_CORES)
list(LENGTH RACE_CORES UNIQUE)
if(NOT UNIQUE EQUAL 1)
  message(FATAL_ERROR
    "race: ${UNIQUE} distinct answers to identical queries\n${RACE_CORES}")
endif()
list(GET RACE_CORES 0 RACE_CORE)
if(NOT RACE_CORE STREQUAL COLD_CORE)
  message(FATAL_ERROR
    "race: concurrent answer diverged from the cold solve\n"
    "---- cold ----\n${COLD_CORE}\n---- raced ----\n${RACE_CORE}")
endif()

# Network-level query, an expired deadline (must degrade, not crash),
# and the error paths: garbage input and a bad schema tag answer with
# structured invalid-input envelopes while the daemon keeps serving.
run_query(${WORK_DIR}/serve-r4.jsonl --request ${Q_NET})
first_line(NET ${WORK_DIR}/serve-r4.jsonl)
if(NOT NET MATCHES "\"status\":\"ok\"")
  message(FATAL_ERROR "network query did not succeed\n${NET}")
endif()

run_query(${WORK_DIR}/serve-r5.jsonl --request ${Q_DEADLINE})
first_line(DL ${WORK_DIR}/serve-r5.jsonl)
if(NOT DL MATCHES "\"status\":\"(ok|degraded|no-design)\"")
  message(FATAL_ERROR "deadline query neither succeeded nor degraded\n${DL}")
endif()

run_query(${WORK_DIR}/serve-r6.jsonl
  --request "this is not json"
  --request "{\"schema\":\"bogus/9\",\"query\":{}}"
  --request "{\"cmd\":\"ping\"}"
  --request "{\"cmd\":\"stats\"}")
file(STRINGS ${WORK_DIR}/serve-r6.jsonl ERRS)
list(GET ERRS 0 BAD_JSON)
list(GET ERRS 1 BAD_SCHEMA)
list(GET ERRS 2 PONG)
list(GET ERRS 3 STATS)
foreach(RESP IN ITEMS "${BAD_JSON}" "${BAD_SCHEMA}")
  if(NOT RESP MATCHES "\"status\":\"invalid\"" OR
     NOT RESP MATCHES "\"exit_code\":2")
    message(FATAL_ERROR "bad input not rejected as invalid\n${RESP}")
  endif()
endforeach()
if(NOT PONG MATCHES "\"status\":\"ok\"")
  message(FATAL_ERROR "ping failed\n${PONG}")
endif()
if(NOT STATS MATCHES "\"serve\":")
  message(FATAL_ERROR "stats response lacks the serve section\n${STATS}")
endif()

# 3. Clean shutdown over the wire: the daemon acknowledges, compacts
#    its journal into the snapshot, and writes its run report.
run_query(${WORK_DIR}/serve-r7.jsonl --request "{\"cmd\":\"shutdown\"}")
wait_for_exit("daemon (first lifetime)")
wait_for_file(${WORK_DIR}/serve-report-1.json "first daemon run report")
if(NOT EXISTS ${DIR}/gpcache.snap)
  message(FATAL_ERROR "shutdown left no compacted snapshot in ${DIR}")
endif()
if(EXISTS ${DIR}/gpcache.journal)
  message(FATAL_ERROR "journal survived shutdown compaction in ${DIR}")
endif()

# 4. Second daemon lifetime on the same cache directory: the answer now
#    comes from the reloaded snapshot and must still be byte-identical.
start_daemon(${WORK_DIR}/serve-report-2.json ${WORK_DIR}/serve-log-2.txt)
run_query(${WORK_DIR}/serve-p2r1.jsonl --request ${Q_LAYER})
first_line(RELOADED ${WORK_DIR}/serve-p2r1.jsonl)
strip_server(RELOADED_CORE "${RELOADED}")
if(NOT RELOADED_CORE STREQUAL COLD_CORE)
  message(FATAL_ERROR
    "disk-reloaded answer diverged from the cold solve\n"
    "---- cold ----\n${COLD_CORE}\n---- reloaded ----\n${RELOADED_CORE}")
endif()
run_query(${WORK_DIR}/serve-p2r2.jsonl --request "{\"cmd\":\"shutdown\"}")
wait_for_exit("daemon (second lifetime)")
wait_for_file(${WORK_DIR}/serve-report-2.json "second daemon run report")

# 5. Order independence: one daemon answers the same query before and
#    after another one. A one-entry cache evicts the first answer, so
#    the second is solved again with the other query's entries around,
#    and must still be byte-identical.
set(DIR ${WORK_DIR}/serve-cache-order)
file(REMOVE_RECURSE ${DIR})
start_daemon(${WORK_DIR}/serve-report-3.json ${WORK_DIR}/serve-log-3.txt
  --cache-capacity 1)
run_query(${WORK_DIR}/serve-p3r1.jsonl --request ${Q_TINY})
run_query(${WORK_DIR}/serve-p3r2.jsonl --request ${Q_LAYER})
run_query(${WORK_DIR}/serve-p3r3.jsonl --request ${Q_TINY})
run_query(${WORK_DIR}/serve-p3r4.jsonl --request "{\"cmd\":\"shutdown\"}")
wait_for_exit("daemon (third lifetime)")
wait_for_file(${WORK_DIR}/serve-report-3.json "third daemon run report")
first_line(BEFORE ${WORK_DIR}/serve-p3r1.jsonl)
first_line(AFTER ${WORK_DIR}/serve-p3r3.jsonl)
if(NOT BEFORE MATCHES "\"status\":\"no-design\"")
  message(FATAL_ERROR "two-word register query found a design\n${BEFORE}")
endif()
if(NOT AFTER MATCHES "\"miss\":[1-9]")
  message(FATAL_ERROR "the repeated query was not solved again\n${AFTER}")
endif()
strip_server(BEFORE_CORE "${BEFORE}")
strip_server(AFTER_CORE "${AFTER}")
if(NOT BEFORE_CORE STREQUAL AFTER_CORE)
  message(FATAL_ERROR
    "an earlier query changed the answer\n"
    "---- before ----\n${BEFORE_CORE}\n---- after ----\n${AFTER_CORE}")
endif()

# 6. Schema-level checks: every captured response is a valid
#    thistle-serve/1 envelope, the embedded reports are byte-identical
#    to the standalone thistle-opt run reports in the shared diff normal
#    form, and the daemon's accounting reconciles with the responses.
if(PYTHON)
  foreach(F serve-r1 serve-r2 serve-r3 serve-r4 serve-r5 serve-r6
            serve-r7 serve-p2r1 serve-p2r2 serve-p3r1 serve-p3r2
            serve-p3r3 serve-p3r4)
    execute_process(
      COMMAND ${PYTHON} ${CHECKER} --serve ${WORK_DIR}/${F}.jsonl
      OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE CODE)
    if(NOT CODE EQUAL 0)
      message(FATAL_ERROR "envelope check failed on ${F}:\n${OUT}\n${ERR}")
    endif()
  endforeach()

  function(reports_match RESPONSES BASELINE WHAT)
    execute_process(
      COMMAND ${PYTHON} ${CHECKER} --extract-report ${RESPONSES}
      OUTPUT_VARIABLE SERVED ERROR_VARIABLE ERR RESULT_VARIABLE CODE)
    if(NOT CODE EQUAL 0)
      message(FATAL_ERROR
        "report extraction failed on ${RESPONSES}:\n${ERR}")
    endif()
    execute_process(
      COMMAND ${PYTHON} ${CHECKER} --for-diff ${BASELINE}
      OUTPUT_VARIABLE STANDALONE ERROR_VARIABLE ERR RESULT_VARIABLE CODE)
    if(NOT CODE EQUAL 0)
      message(FATAL_ERROR
        "diff form failed on ${BASELINE}:\n${ERR}")
    endif()
    if(NOT SERVED STREQUAL STANDALONE)
      message(FATAL_ERROR
        "${WHAT}: served report diverged from standalone thistle-opt\n"
        "---- served ----\n${SERVED}\n---- standalone ----\n${STANDALONE}")
    endif()
  endfunction()
  reports_match(${WORK_DIR}/serve-r1.jsonl
    ${WORK_DIR}/serve-opt-layer.json "layer query")
  reports_match(${WORK_DIR}/serve-r4.jsonl
    ${WORK_DIR}/serve-opt-net.json "network query")

  execute_process(
    COMMAND ${PYTHON} ${CHECKER} --serve-consistency
      ${WORK_DIR}/serve-report-1.json
      ${WORK_DIR}/serve-r1.jsonl ${WORK_DIR}/serve-r2.jsonl
      ${WORK_DIR}/serve-r3.jsonl ${WORK_DIR}/serve-r4.jsonl
      ${WORK_DIR}/serve-r5.jsonl ${WORK_DIR}/serve-r6.jsonl
      ${WORK_DIR}/serve-r7.jsonl
    OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR "serve accounting inconsistent:\n${OUT}\n${ERR}")
  endif()
  execute_process(
    COMMAND ${PYTHON} ${CHECKER} --serve-consistency
      ${WORK_DIR}/serve-report-2.json
      ${WORK_DIR}/serve-p2r1.jsonl ${WORK_DIR}/serve-p2r2.jsonl
    OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR
      "second-lifetime accounting inconsistent:\n${OUT}\n${ERR}")
  endif()
  execute_process(
    COMMAND ${PYTHON} ${CHECKER} --serve-consistency
      ${WORK_DIR}/serve-report-3.json
      ${WORK_DIR}/serve-p3r1.jsonl ${WORK_DIR}/serve-p3r2.jsonl
      ${WORK_DIR}/serve-p3r3.jsonl ${WORK_DIR}/serve-p3r4.jsonl
    OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR
      "third-lifetime accounting inconsistent:\n${OUT}\n${ERR}")
  endif()
endif()
