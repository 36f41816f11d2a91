# ctest -P helper: run SPSIM with ARGS ("|"-separated) and pass only when it
# exits 2 with a stderr message naming FLAG. A bad numeric flag must fail
# fast; the 10 s limit turns a run that never ends into a failure.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${SPSIM}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 10)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "spsim ${args}: expected exit 2, got '${rc}'\n${out}${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "spsim ${args}: stderr does not name ${FLAG}:\n${err}")
endif()
