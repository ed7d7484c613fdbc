// The coroutine shape GCC 12.2 miscompiles, for
// scripts/check_coroutine_shapes.sh to flag (it must report both
// coroutines below). Not compiled. Awaiting into a named local first,
// as zoo/specialist.hpp's query_fate does, mends either one.
#include "sim/co.hpp"

tbwf::sim::Co<bool> landed(int x) { co_return x > 0; }

tbwf::sim::Co<int> await_in_if(int x) {
  if (!co_await landed(x)) co_return 0;
  co_return 1;
}

tbwf::sim::Co<int> await_right_of_and(int x) {
  co_return (x > 1 && co_await landed(x)) ? 1 : 0;
}
