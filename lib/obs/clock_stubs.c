/* CLOCK_MONOTONIC in nanoseconds for Obs.now_ns.  The native entry returns
   an unboxed int64 and allocates nothing; bytecode boxes the result. */
#include <stdint.h>
#include <time.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

int64_t migsyn_now_ns(value unit) {
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

value migsyn_now_ns_byte(value unit) { return caml_copy_int64(migsyn_now_ns(unit)); }
