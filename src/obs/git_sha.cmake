# Build-time step: writes OUT, a one-line C++ source defining
# hjsvd::obs::build_git_sha(), from `git rev-parse HEAD` run in SRC ("unknown"
# when GIT is empty or SRC is not a git checkout).  OUT is rewritten only when
# its text changes, so a build at an unchanged sha recompiles nothing.
#
#   cmake -DGIT=<git> -DSRC=<source dir> -DOUT=<file> -P git_sha.cmake
set(sha "unknown")
if(GIT)
  execute_process(
    COMMAND "${GIT}" rev-parse HEAD
    WORKING_DIRECTORY "${SRC}"
    OUTPUT_VARIABLE head
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE rc)
  if(rc EQUAL 0 AND head)
    set(sha "${head}")
  endif()
endif()
set(text "namespace hjsvd::obs { const char* build_git_sha() { return \"${sha}\"; } }\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL text)
  file(WRITE "${OUT}" "${text}")
endif()
