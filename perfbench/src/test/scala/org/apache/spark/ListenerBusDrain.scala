package org.apache.spark

/** Waits until every event posted to the listener bus has been delivered.
  * The bus is `private[spark]`; this object lives in Spark's package only
  * to reach it, so that per-layer job and task counts are read after the
  * listener has seen every event of the layer.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
