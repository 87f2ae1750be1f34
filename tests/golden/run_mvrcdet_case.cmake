# Runs one mvrcdet golden case and compares its stdout plus exit status with
# the committed transcript.
#
#   cmake -DMVRCDET=<path to mvrcdet> -DCASE=<name> -DGOLDEN_DIR=<tests/golden>
#         -DOUT_DIR=<scratch dir> -P run_mvrcdet_case.cmake
#
# The case's arguments come from GOLDEN_DIR/mvrcdet_cases.txt and are run from
# the current directory (ctest sets it to the repository root). With
# MVRC_UPDATE_GOLDEN=1 in the environment the transcript is rewritten instead.

file(STRINGS "${GOLDEN_DIR}/mvrcdet_cases.txt" lines)
set(args_text "")
set(found OFF)
foreach(line IN LISTS lines)
  if(line MATCHES "^${CASE} (.*)$")
    set(args_text "${CMAKE_MATCH_1}")
    set(found ON)
  endif()
endforeach()
if(NOT found)
  message(FATAL_ERROR "no case named ${CASE} in ${GOLDEN_DIR}/mvrcdet_cases.txt")
endif()
separate_arguments(args UNIX_COMMAND "${args_text}")

execute_process(COMMAND "${MVRCDET}" ${args}
                OUTPUT_VARIABLE actual
                ERROR_QUIET
                RESULT_VARIABLE status)
string(APPEND actual "[exit ${status}]\n")

set(expected_path "${GOLDEN_DIR}/mvrcdet/${CASE}.out")
if("$ENV{MVRC_UPDATE_GOLDEN}" STREQUAL "1")
  file(WRITE "${expected_path}" "${actual}")
  return()
endif()
file(READ "${expected_path}" expected)
if(NOT actual STREQUAL expected)
  file(MAKE_DIRECTORY "${OUT_DIR}")
  file(WRITE "${OUT_DIR}/${CASE}.out" "${actual}")
  message(FATAL_ERROR "mvrcdet ${args_text}: output differs from the transcript\n"
                      "  diff -u ${expected_path} ${OUT_DIR}/${CASE}.out")
endif()
