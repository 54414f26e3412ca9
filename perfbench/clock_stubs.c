/* A monotonic, nanosecond-resolution clock for the probe's timings
   (Unix.gettimeofday only resolves microseconds, too coarse for
   single requests). */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double perfbench_now_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value perfbench_now(value unit)
{
  return caml_copy_double(perfbench_now_unboxed(unit));
}
