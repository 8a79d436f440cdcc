# Paper-table golden check run via `cmake -P`: execute every
# deterministic paper bench and every example and compare its stdout
# byte for byte with the committed golden file, so the tables in
# EXPERIMENTS.md cannot drift silently. The programs print simulated
# time only, never host time. After an intended change, regenerate a
# golden with `build/bench/<bench> <args> > tests/golden/<name>.txt`
# (or `build/examples/<example> > tests/golden/<example>.txt`) and
# explain the drift in the same change.
#
# Required -D variables:
#   BENCH_DIR   - directory holding the bench executables
#   EXAMPLE_DIR - directory holding the example_* executables
#   GOLDEN_DIR  - directory holding the committed <name>.txt files
#   OUT_DIR     - directory for the captured outputs

foreach(var BENCH_DIR EXAMPLE_DIR GOLDEN_DIR OUT_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "golden_check.cmake: ${var} not set")
    endif()
endforeach()

# Golden name -> executable and arguments. example_* names run from
# EXAMPLE_DIR, everything else from BENCH_DIR.
set(cases
    fig8_bandwidth
    table_initiation_cost
    table_hippi_motivation
    table_half_power
    ablation_queueing
    ablation_pio_crossover
    ablation_autoupdate
    ablation_combining
    ablation_ctxswitch
    multinode_patterns_nodes3
    multinode_patterns_mesh4x4
    example_disk_dma
    example_message_passing
    example_multiprocess_sharing
    example_paging_pressure
    example_parallel_reduce
    example_producer_consumer
    example_quickstart)
foreach(name IN LISTS cases)
    set(cmd_${name} ${name})
endforeach()
set(cmd_multinode_patterns_nodes3 multinode_patterns --nodes=3)
set(cmd_multinode_patterns_mesh4x4
    multinode_patterns --nodes=16 --topo=mesh:4x4)

# The environment must not reshape the runs.
foreach(var SHRIMP_TRACE SHRIMP_AUDIT SHRIMP_FAULTS SHRIMP_TOPO)
    unset(ENV{${var}})
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")
find_program(DIFF diff)
set(failed "")
foreach(name IN LISTS cases)
    set(cmd ${cmd_${name}})
    list(POP_FRONT cmd exe)
    set(dir "${BENCH_DIR}")
    if(exe MATCHES "^example_")
        set(dir "${EXAMPLE_DIR}")
    endif()
    set(golden "${GOLDEN_DIR}/${name}.txt")
    set(out "${OUT_DIR}/${name}.txt")
    execute_process(
        COMMAND "${dir}/${exe}" ${cmd}
        OUTPUT_FILE "${out}"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(SEND_ERROR "${name}: ${exe} exited with ${rc}")
        list(APPEND failed ${name})
        continue()
    endif()
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files "${golden}" "${out}"
        RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        message(SEND_ERROR "${name}: stdout differs from ${golden}")
        if(DIFF)
            execute_process(COMMAND "${DIFF}" "${golden}" "${out}")
        endif()
        list(APPEND failed ${name})
    endif()
endforeach()

if(failed)
    message(FATAL_ERROR "golden_check.cmake: mismatch in ${failed}")
endif()
