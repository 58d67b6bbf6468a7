# End-to-end check of orion_cli's numeric parsing: a bad block size is a
# usage error (exit 2) and a bad number in a CSV flow input an input error
# (exit 1), both leaving an existing output file's bytes as they were; a
# valid small block size converts and inspects cleanly.
#
#   cmake -DORION_CLI=<path to orion_cli> -DWORK_DIR=<scratch dir> \
#         -P orion_cli_test.cmake

if(NOT ORION_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "set ORION_CLI and WORK_DIR")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs orion_cli with the given arguments and checks its exit code.
function(expect_cli want what)
  execute_process(COMMAND "${ORION_CLI}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
  if(NOT "${code}" STREQUAL "${want}")
    message(FATAL_ERROR "${what}: exit ${code}, want ${want}\n${out}${err}")
  endif()
endfunction()

set(victim_bytes "victim: must survive a rejected write\n")
function(expect_victim_intact what)
  file(READ "${WORK_DIR}/victim" now)
  if(NOT now STREQUAL victim_bytes)
    message(FATAL_ERROR "${what}: victim file changed to:\n${now}")
  endif()
endfunction()

expect_cli(0 "simulate" simulate --scenario tiny --out events.ode1)
file(WRITE "${WORK_DIR}/victim" "${victim_bytes}")
file(WRITE "${WORK_DIR}/flows.csv"
     "router,ts_ns,src,dst,src_port,dst_port,proto,packets,bytes\n"
     "0,1000,192.0.2.1,198.51.100.7,40000,23,6,3,180\n")

foreach(block 0 abc 7x)
  expect_cli(2 "convert --block-events ${block}"
             convert --in events.ode1 --out victim --block-events ${block})
  expect_victim_intact("convert --block-events ${block}")
endforeach()
expect_cli(2 "flow-convert --block-flows 0"
           flow-convert --in flows.csv --out victim --block-flows 0)
expect_victim_intact("flow-convert --block-flows 0")
# Numbers inside a CSV flow input go through the same strict parser: a
# port beyond 16 bits is an input error (exit 1), not a silent wrap.
file(WRITE "${WORK_DIR}/bad.csv"
     "0,1000,192.0.2.1,198.51.100.7,40000,65536,6,3,180\n")
expect_cli(1 "flow-convert of a CSV with a bad port"
           flow-convert --in bad.csv --out victim)
expect_victim_intact("flow-convert of a CSV with a bad port")

expect_cli(0 "convert --block-events 7"
           convert --in events.ode1 --out events.ode2 --block-events 7)
expect_cli(0 "inspect" inspect --in events.ode2)
