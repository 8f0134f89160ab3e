package repro.jobs

import org.apache.spark.sql.SparkSession

/** The one session setup, shared by the tests, the bench suites and
  * perfbench: local mode unless `SPARK_MASTER` says otherwise, and
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
