# Fails when a file under src/ names an unordered standard container
# (std::unordered_map, std::unordered_set or their multi- forms, or includes
# their headers).  The map rule (DESIGN.md §8): integer keys go in FlatTable
# (common/flat_table.h), and std::map/std::set serve where order is read.
#
#   cmake -DSRC_DIR=<repo>/src -P check_map_rule.cmake
cmake_minimum_required(VERSION 3.16)

file(GLOB_RECURSE sources "${SRC_DIR}/*.h" "${SRC_DIR}/*.cpp")
set(found "")
foreach(path IN LISTS sources)
  file(STRINGS "${path}" lines REGEX "unordered_(multi)?(map|set)")
  foreach(line IN LISTS lines)
    file(RELATIVE_PATH shown "${SRC_DIR}" "${path}")
    string(STRIP "${line}" line)
    string(APPEND found "\n  src/${shown}: ${line}")
  endforeach()
endforeach()
if(found)
  message(FATAL_ERROR "src/ breaks the map rule (DESIGN.md §8):${found}")
endif()
list(LENGTH sources n)
message(STATUS "map rule holds over ${n} files in src/")
