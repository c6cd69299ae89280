# Runs one command-line smoke check and asserts on what it leaves behind.
# hpcs_smoke_test() in the top-level CMakeLists.txt registers the calls:
#
#   cmake -DWORK=<dir> [-DJOBS=<n>] [-DEXIT=<code>] [-DSAME=<files>]
#         [-DJSON=<files>] [-DMATCH=<file=regex>...]
#         [-DPOSITIVE=<file=key.path>...] [-DMISSING=<paths>]
#         -P check_smoke.cmake -- <command> <args>...
#
# The command runs once with @OUT@ replaced by WORK/out.  With JOBS set it
# runs twice, with @JOBS@ replaced by 1 and @OUT@ by WORK/jobs1, then with
# @JOBS@ replaced by JOBS and @OUT@ by WORK/jobs<JOBS>.  Each run's stdout
# and stderr go to @OUT@/log.txt.  Then:
#
#   EXIT      every run exits with this code (default 0)
#   SAME      these files (relative to @OUT@) are byte-identical in both runs
#   JSON      these files parse as JSON
#   MATCH     file=regex: some line of the file matches the regex
#   POSITIVE  file=key.path: the JSON number at key.path is greater than 0
#   MISSING   these paths do not exist
#
# All checks but SAME read the last run's @OUT@.  Every failed check is
# reported, and any failure makes the script exit non-zero.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(NOT WORK)
  message(FATAL_ERROR "check_smoke: WORK is required")
endif()
if("${EXIT}" STREQUAL "")
  set(EXIT 0)
endif()

# The command is everything after "--".
set(command "")
set(in_command FALSE)
math(EXPR last_arg "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last_arg})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "check_smoke: no command after --")
endif()

set(failures "")
file(REMOVE_RECURSE "${WORK}")

function(run_command out jobs)
  file(MAKE_DIRECTORY "${out}")
  set(argv "")
  foreach(arg IN LISTS command)
    string(REPLACE "@OUT@" "${out}" arg "${arg}")
    string(REPLACE "@JOBS@" "${jobs}" arg "${arg}")
    list(APPEND argv "${arg}")
  endforeach()
  execute_process(COMMAND ${argv} RESULT_VARIABLE rc
                  OUTPUT_FILE "${out}/log.txt" ERROR_FILE "${out}/log.txt")
  if(NOT "${rc}" STREQUAL "${EXIT}")
    file(READ "${out}/log.txt" log)
    message("${log}")
    list(JOIN argv " " shown)
    list(APPEND failures "'${shown}' exited ${rc}, expected ${EXIT}")
    set(failures "${failures}" PARENT_SCOPE)
  endif()
endfunction()

if("${JOBS}" STREQUAL "")
  set(out "${WORK}/out")
  run_command("${out}" "")
else()
  set(first "${WORK}/jobs1")
  set(out "${WORK}/jobs${JOBS}")
  run_command("${first}" 1)
  run_command("${out}" "${JOBS}")
  foreach(file IN LISTS SAME)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            "${first}/${file}" "${out}/${file}"
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      list(APPEND failures "${file} differs between --jobs 1 and ${JOBS}")
    endif()
  endforeach()
endif()

foreach(file IN LISTS JSON)
  if(NOT EXISTS "${out}/${file}")
    list(APPEND failures "${file} was not written")
    continue()
  endif()
  file(READ "${out}/${file}" text)
  string(JSON type ERROR_VARIABLE error TYPE "${text}")
  if(error)
    list(APPEND failures "${file} is not valid JSON: ${error}")
  endif()
endforeach()

foreach(entry IN LISTS MATCH)
  string(FIND "${entry}" "=" eq)
  string(SUBSTRING "${entry}" 0 ${eq} file)
  math(EXPR eq "${eq} + 1")
  string(SUBSTRING "${entry}" ${eq} -1 regex)
  set(lines "")
  if(EXISTS "${out}/${file}")
    file(STRINGS "${out}/${file}" lines REGEX "${regex}")
  endif()
  if(NOT lines)
    list(APPEND failures "no line of ${file} matches '${regex}'")
  endif()
endforeach()

foreach(entry IN LISTS POSITIVE)
  string(FIND "${entry}" "=" eq)
  string(SUBSTRING "${entry}" 0 ${eq} file)
  math(EXPR eq "${eq} + 1")
  string(SUBSTRING "${entry}" ${eq} -1 key)
  string(REPLACE "." ";" path "${key}")
  set(value "")
  if(EXISTS "${out}/${file}")
    file(READ "${out}/${file}" text)
    string(JSON value ERROR_VARIABLE error GET "${text}" ${path})
  endif()
  if(NOT value GREATER 0)
    list(APPEND failures "${file}: ${key} is '${value}', expected > 0")
  endif()
endforeach()

foreach(path IN LISTS MISSING)
  if(EXISTS "${out}/${path}")
    list(APPEND failures "${path} exists, expected it not to")
  endif()
endforeach()

if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "smoke check failed:\n  ${report}")
endif()
