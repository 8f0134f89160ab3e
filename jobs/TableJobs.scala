package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables

/** spark-submit entrypoints, one per reproduced evaluation table.
  *
  * Example:
  * {{{
  * spark-submit --class repro.jobs.TableIJob target/scala-2.13/repro_2.13-*.jar
  * }}}
  *
  * `JobSession` is the one session setup, shared by the jobs, the tests
  * and perfbench: local mode unless `SPARK_MASTER` says otherwise, and
  * broadcast joins off so that joins take the shuffle path.
  */
object JobSession {
  def spark(name: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

object TableIJob {
  def main(args: Array[String]): Unit = println(Tables.tableI(JobSession.spark("tableI")))
}
object TableIIJob {
  def main(args: Array[String]): Unit = println(Tables.tableII(JobSession.spark("tableII")))
}
object TableIIIJob {
  def main(args: Array[String]): Unit = println(Tables.tableIII(JobSession.spark("tableIII")))
}
object TableIVJob {
  def main(args: Array[String]): Unit =
    println(Tables.tableTextToText(JobSession.spark("tableIV"), "politifact"))
}
object TableVJob {
  def main(args: Array[String]): Unit =
    println(Tables.tableTextToText(JobSession.spark("tableV"), "snopes"))
}
object TableVIJob {
  def main(args: Array[String]): Unit = println(Tables.tableVI(JobSession.spark("tableVI")))
}
object TableVIIJob {
  def main(args: Array[String]): Unit = println(Tables.tableVII(JobSession.spark("tableVII")))
}
object TableVIIIJob {
  def main(args: Array[String]): Unit = println(Tables.tableVIII(JobSession.spark("tableVIII")))
}
