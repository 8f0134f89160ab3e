package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs a block starts. The listener bus is
  * `private[spark]`; this object lives in Spark's package only to drain
  * it, before the count starts and after the block, so that every job
  * start of the block, and none of an earlier one, is counted.
  */
object SparkJobs {
  def count[A](sc: SparkContext)(body: => A): (A, Int) = {
    sc.listenerBus.waitUntilEmpty()
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.addSparkListener(listener)
    try {
      val a = body
      sc.listenerBus.waitUntilEmpty()
      (a, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}
