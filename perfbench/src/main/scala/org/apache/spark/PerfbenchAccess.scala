package org.apache.spark

/** Spark internals the benchmark's tracer needs, reachable only from inside
  * the `org.apache.spark` package.
  */
object PerfbenchAccess {
  /** Block until every queued listener event was delivered. */
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
