package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import scala.collection.concurrent.TrieMap
import scala.jdk.CollectionConverters._

/** Spans around calls into the program's layers, measured from outside:
  * wall time, GC time (GC MXBeans), and the Spark jobs, tasks and shuffle
  * bytes a `SparkListener` attributes to the span through its job group.
  */
final class Tracer(spark: SparkSession) {
  import Tracer.Span

  private val GroupKey = "spark.jobGroup.id"
  private val stageSpan = TrieMap.empty[Int, String]
  private val jobs = TrieMap.empty[String, Long]
  private val tasks = TrieMap.empty[String, Long]
  private val shuffleBytes = TrieMap.empty[String, Long]
  private val spans = Seq.newBuilder[Span]

  spark.sparkContext.addSparkListener(new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit =
      Option(e.properties).flatMap(p => Option(p.getProperty(GroupKey))).foreach { g =>
        jobs(g) = jobs.getOrElse(g, 0L) + 1
        e.stageIds.foreach(stageSpan(_) = g)
      }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
      stageSpan.get(e.stageId).foreach { g =>
        tasks(g) = tasks.getOrElse(g, 0L) + 1
        val written = Option(e.taskMetrics).fold(0L)(_.shuffleWriteMetrics.bytesWritten)
        shuffleBytes(g) = shuffleBytes.getOrElse(g, 0L) + written
      }
  })

  private def gcMillis: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** Runs `body` as span `name`; `body` must force the layer's output. */
  def span[A](name: String)(body: => A): A = {
    val sc = spark.sparkContext
    sc.setJobGroup(name, name)
    val gc0 = gcMillis
    val t0 = System.nanoTime()
    try body
    finally {
      spans += Span(name, (System.nanoTime() - t0) / 1e9, (gcMillis - gc0) / 1e3)
      sc.clearJobGroup()
    }
  }

  /** `<span>.wall_s`, `.jobs`, `.tasks`, `.gc_s` and `.calls` per span
    * name, plus the first four summed over `pipeline` spans as
    * `pipeline.*` with `pipeline.shuffle_mb`.
    */
  def metrics(pipeline: Seq[String]): Seq[(String, Double, String)] = {
    ListenerBusDrain(spark.sparkContext)
    val done = spans.result()
    def row(name: String, ss: Seq[Span]) = {
      val names = ss.map(_.name)
      Seq(
        (s"$name.wall_s", ss.map(_.wallS).sum, "s"),
        (s"$name.jobs", names.map(jobs.getOrElse(_, 0L)).sum.toDouble, "count"),
        (s"$name.tasks", names.map(tasks.getOrElse(_, 0L)).sum.toDouble, "count"),
        (s"$name.gc_s", ss.map(_.gcS).sum, "s"))
    }
    done.groupBy(_.name).toSeq.flatMap { case (name, ss) =>
      row(name, ss) :+ ((s"$name.calls", ss.size.toDouble, "count"))
    } ++
      row("pipeline", done.filter(s => pipeline.contains(s.name))) :+
      (("pipeline.shuffle_mb", pipeline.map(shuffleBytes.getOrElse(_, 0L)).sum / 1e6, "MB"))
  }
}

object Tracer {
  final case class Span(name: String, wallS: Double, gcS: Double)
}
