# Injected into the repository's own CMake project with
#   -DCMAKE_PROJECT_INCLUDE=<checkout>/perfbench/hook.cmake
# so the benchmark links the libraries exactly as the repository builds them
# without any change to the repository's build files.
include_guard(GLOBAL)
add_subdirectory(${CMAKE_CURRENT_LIST_DIR} perfbench)
