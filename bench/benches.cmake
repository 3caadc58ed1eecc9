# Benchmark binaries: one per paper table/figure (see DESIGN.md §4).
# Emitted into build/bench/ so `for b in build/bench/*; do $b; done`
# runs the whole harness.
function(loco_add_bench name)
  add_executable(${name} ${ARGN})
  target_link_libraries(${name} PRIVATE loco_benchlib)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

loco_add_bench(fig00_kv_valuesize bench/fig00_kv_valuesize.cc)
target_link_libraries(fig00_kv_valuesize PRIVATE benchmark::benchmark)

loco_add_bench(fig01_gap bench/fig01_gap.cc)
loco_add_bench(fig02_locate bench/fig02_locate.cc)
loco_add_bench(fig06_latency bench/fig06_latency.cc)
loco_add_bench(fig07_ops_latency bench/fig07_ops_latency.cc)
loco_add_bench(fig08_throughput bench/fig08_throughput.cc)
loco_add_bench(fig09_bridge bench/fig09_bridge.cc)
loco_add_bench(fig10_flattened bench/fig10_flattened.cc)
loco_add_bench(fig11_decoupled bench/fig11_decoupled.cc)
loco_add_bench(fig12_fullsystem bench/fig12_fullsystem.cc)
loco_add_bench(fig13_depth bench/fig13_depth.cc)
loco_add_bench(fig14_rename bench/fig14_rename.cc)
# The drivers behind the committed BENCH_*.json files record perfbench's
# host fingerprint with their results.
foreach(name fig_loopback fig_overload fig_shard)
  loco_add_bench(${name} bench/${name}.cc perfbench/host.cc)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/perfbench)
  target_compile_definitions(${name} PRIVATE
    LOCOBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
endforeach()
loco_add_bench(tab01_access_matrix bench/tab01_access_matrix.cc)
loco_add_bench(tab03_clients bench/tab03_clients.cc)
loco_add_bench(abl01_lease bench/abl01_lease.cc)
loco_add_bench(abl02_ring bench/abl02_ring.cc)
loco_add_bench(abl03_dirent bench/abl03_dirent.cc)
