package repro.baselines

import org.apache.spark.sql.DataFrame

/** A baseline's `(queryId, candId, sim, rank)` ranking and the wall-clock
  * seconds of its train and test phases (paper Table VII).
  */
final case class Ranked(ranked: DataFrame, trainSec: Double, testSec: Double)

object Ranked {
  /** `f`'s result and its wall-clock seconds. */
  def time[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime(); val r = f; (r, (System.nanoTime() - t0) / 1e9)
  }
}
