# Copies a bench_self result with every timing (each "*_s" value) made
# 2.5x slower: the input that shows bench_compare's gate trips.
#
#   cmake -DIN=bench.json -DOUT=slow.json -P slow_down.cmake
#
# CMake has no floating point, so the product is formed in decimal and is
# exact: x = digits * 10^e gives 2.5 x = (digits * 25) * 10^(e - 1).
cmake_minimum_required(VERSION 3.16)

file(READ "${IN}" doc)
# The closing delimiter keeps one timing from matching another's prefix.
string(REGEX MATCHALL "\"[a-z0-9_]+_s\": [-+.0-9eE]+[,}]" timings "${doc}")
list(REMOVE_DUPLICATES timings)
foreach(timing IN LISTS timings)
  string(REGEX MATCH
         "^(\"[a-z0-9_]+_s\": )([0-9]*)\\.?([0-9]*)[eE]?([-+]?[0-9]*)([,}])$"
         parsed "${timing}")
  if(NOT parsed)
    message(FATAL_ERROR "slow_down: cannot parse ${timing}")
  endif()
  set(key "${CMAKE_MATCH_1}")
  set(digits "${CMAKE_MATCH_2}${CMAKE_MATCH_3}")
  string(LENGTH "${CMAKE_MATCH_3}" places)
  set(exponent "${CMAKE_MATCH_4}")
  set(delimiter "${CMAKE_MATCH_5}")
  if(exponent STREQUAL "")
    set(exponent 0)
  endif()
  math(EXPR digits "${digits} * 25")
  math(EXPR exponent "${exponent} - ${places} - 1")
  string(REPLACE "${timing}" "${key}${digits}e${exponent}${delimiter}"
         doc "${doc}")
endforeach()
file(WRITE "${OUT}" "${doc}")
