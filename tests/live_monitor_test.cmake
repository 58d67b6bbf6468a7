# End-to-end check of the live_monitor example: archive resume, shard-count
# invariance, config-mismatch refusal and --shards validation.
#
#   cmake -DLIVE_MONITOR=<path to live_monitor> -DWORK_DIR=<scratch dir> \
#         -P live_monitor_test.cmake

if(NOT LIVE_MONITOR OR NOT WORK_DIR)
  message(FATAL_ERROR "set LIVE_MONITOR and WORK_DIR")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs live_monitor with the given arguments; sets <prefix>_out and
# <prefix>_code in the caller.
function(run_monitor prefix)
  execute_process(COMMAND "${LIVE_MONITOR}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
  set(${prefix}_out "${out}" PARENT_SCOPE)
  set(${prefix}_code "${code}" PARENT_SCOPE)
endfunction()

function(expect_code prefix want what)
  if(NOT "${${prefix}_code}" STREQUAL "${want}")
    message(FATAL_ERROR "${what}: exit ${${prefix}_code}, want ${want}\n"
                        "${${prefix}_out}")
  endif()
endfunction()

# The parts of a report that must not depend on how the run was split:
# the day table, the cumulative AH line and the health line.
function(extract prefix)
  string(REGEX MATCH "date [^\n]*\n-+\n([0-9][^\n]*\n)+" table
         "${${prefix}_out}")
  string(REGEX MATCH "cumulative AH discovered online: [^\n]*" ah
         "${${prefix}_out}")
  string(REGEX MATCH "health: [^\n]*" health "${${prefix}_out}")
  if(table STREQUAL "" OR ah STREQUAL "" OR health STREQUAL "")
    message(FATAL_ERROR "${prefix}: report incomplete\n${${prefix}_out}")
  endif()
  set(${prefix}_table "${table}" PARENT_SCOPE)
  set(${prefix}_summary "${table}${ah}\n${health}\n" PARENT_SCOPE)
endfunction()

function(expect_equal a b what)
  if(NOT "${${a}}" STREQUAL "${${b}}")
    message(FATAL_ERROR "${what} differ:\n--- ${a}\n${${a}}--- ${b}\n${${b}}")
  endif()
endfunction()

# A second run over a finished archive resumes and reports the same.
run_monitor(fresh --shards 2 --archive arch)
expect_code(fresh 0 "fresh archive run")
if(fresh_out MATCHES "resumed from")
  message(FATAL_ERROR "fresh archive run claims a resume\n${fresh_out}")
endif()
run_monitor(rerun --shards 2 --archive arch)
expect_code(rerun 0 "archive rerun")
if(NOT rerun_out MATCHES "resumed from archive generation [0-9]+")
  message(FATAL_ERROR "archive rerun did not resume\n${rerun_out}")
endif()
extract(fresh)
extract(rerun)
expect_equal(fresh_summary rerun_summary "fresh and resumed reports")

# The day table does not depend on the shard count.
run_monitor(one --shards 1)
expect_code(one 0 "--shards 1")
run_monitor(four --shards 4)
expect_code(four 0 "--shards 4")
extract(one)
extract(four)
expect_equal(one_table four_table "--shards 1 and --shards 4 day tables")

# Resuming under a different shard count is refused as a config mismatch.
run_monitor(mismatch --shards 3 --archive arch)
expect_code(mismatch 2 "resume under a different --shards")

# Malformed shard counts are usage errors.
foreach(bad abc 0 4x -1)
  run_monitor(bad --shards "${bad}")
  expect_code(bad 1 "--shards '${bad}'")
endforeach()
