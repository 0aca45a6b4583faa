# Strict-flag contract of a bench that writes a BENCH_*.json record: run
# it in an empty directory with `--help` (exit 0, usage on stdout) and
# with a misspelt flag (non-zero exit, "unknown flag" on stderr). Neither
# may start the bench, so the directory must still be empty afterwards.
#
#   cmake -DBENCH=<bench binary> -DDIR=<scratch dir> -P check_flags.cmake

file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

execute_process(COMMAND "${BENCH}" --help
    WORKING_DIRECTORY "${DIR}"
    RESULT_VARIABLE help_rc OUTPUT_VARIABLE help_out ERROR_QUIET)
if(NOT help_rc EQUAL 0 OR NOT help_out MATCHES "usage:")
    message(FATAL_ERROR "--help exited ${help_rc}:\n${help_out}")
endif()

execute_process(COMMAND "${BENCH}" --qiuck
    WORKING_DIRECTORY "${DIR}"
    RESULT_VARIABLE bad_rc OUTPUT_QUIET ERROR_VARIABLE bad_err)
if(bad_rc EQUAL 0 OR NOT bad_err MATCHES "unknown flag --qiuck")
    message(FATAL_ERROR "--qiuck exited ${bad_rc}:\n${bad_err}")
endif()

file(GLOB written "${DIR}/*")
if(written)
    message(FATAL_ERROR "the bench wrote files: ${written}")
endif()
