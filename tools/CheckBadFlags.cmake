# Asserts that every numeric flag of thistle-opt, thistle-serve and
# thistle-query rejects malformed values: junk, trailing characters, a
# sign on an unsigned value, overflow, and the value just below the
# flag's minimum. Each run must exit 2, print an `error:` line naming
# the flag, and print nothing on stdout — no sweep and no listener was
# started. Invoked by ctest as:
#   cmake -DOPT=<thistle-opt> -DSERVE=<thistle-serve>
#         -DQUERY=<thistle-query> -DWORK_DIR=<dir> -P CheckBadFlags.cmake

set(MALFORMED abc 2x -1 99999999999999999999)

# expect_rejected(NAME <command...>): the command exits 2 with an
# error line mentioning NAME and an empty stdout.
function(expect_rejected NAME)
  execute_process(
    COMMAND ${ARGN}
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE CODE
    TIMEOUT 30)
  string(REPLACE ";" " " CMD "${ARGN}")
  if(NOT CODE EQUAL 2)
    message(FATAL_ERROR "${CMD}: expected exit code 2, got '${CODE}'\n"
                        "${OUT}\n${ERR}")
  endif()
  if(NOT ERR MATCHES "error: [^\n]*${NAME}")
    message(FATAL_ERROR "${CMD}: no error line naming ${NAME}\n${ERR}")
  endif()
  if(NOT OUT STREQUAL "")
    message(FATAL_ERROR "${CMD}: printed run output\n${OUT}")
  endif()
endfunction()

# expect_all(FLAG OUT_OF_RANGE <command prefix...>): FLAG with every
# malformed value and with OUT_OF_RANGE (the value just below the
# flag's minimum, or just above its maximum where -1 is already the
# value below), appended to the prefix.
function(expect_all FLAG OUT_OF_RANGE)
  foreach(VALUE ${MALFORMED} ${OUT_OF_RANGE})
    expect_rejected(${FLAG} ${ARGN} ${FLAG} ${VALUE})
  endforeach()
endfunction()

set(LAYER --layer 16,8,14,14,3,3)
set(NETWORK --network resnet18 --cache-dir ${WORK_DIR}/bad-flags-cache)

# thistle-opt.
expect_all(--groups 0 ${OPT} ${LAYER})
expect_all(--candidates 0 ${OPT} ${LAYER})
expect_all(--threads 1025 ${OPT} ${LAYER})
expect_all(--deadline-ms 0 ${OPT} ${LAYER})
expect_all(--pes 0 ${OPT} ${LAYER})
expect_all(--regs 0 ${OPT} ${LAYER})
expect_all(--sram-words 0 ${OPT} ${LAYER})
expect_all(--area-budget -0.001 ${OPT} ${LAYER} --mode codesign)
expect_all(--resnet 0 ${OPT})
expect_all(--yolo 0 ${OPT})
expect_all(--cache-capacity -1 ${OPT} ${NETWORK})
foreach(VALUE ${MALFORMED} 0)
  expect_rejected(--layer ${OPT} --layer 16,8,14,14,3,${VALUE})
  expect_rejected(--shard ${OPT} ${NETWORK} --shard ${VALUE}/4)
  expect_rejected(--shard ${OPT} ${NETWORK} --shard 1/${VALUE})
endforeach()

# Layers whose MAC count overflows a 64-bit integer are input errors.
expect_rejected(layer ${OPT} --layer 1000000000000,1000000,56,56,3,3)
expect_rejected(layer ${OPT} --layer 9223372036854775806,64,56,56,3,3)

# thistle-serve: a rejected value must never reach the listener.
expect_all(--port 65536 ${SERVE})
expect_all(--max-clients 0 ${SERVE})
expect_all(--threads 1025 ${SERVE})
expect_all(--cache-capacity -1 ${SERVE})
expect_all(--snapshot-every -1 ${SERVE})

# thistle-query: a rejected port must never be dialed.
expect_all(--port 0 ${QUERY} --request "{\"cmd\":\"ping\"}")
